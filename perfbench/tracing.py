"""Span tracing installed from outside the program under test.

:func:`install` replaces public methods of each ``repro`` subpackage
with thin wrappers that record one span per call: layer name, start,
end, parent span, phase (timed work or untimed set-up/verification) and
an item count (rows or requests in a batch call).  A few calls are only
counted.  Spans live in typed arrays in memory and are written out once,
at the end of a run.

Span times are the calling thread's CPU time, like the end-to-end
metric.  On ``fleet_mixed`` the driver and both shard workers share one
vCPU, so a worker's wall-clock span would also count the time the other
processes ran.  A span's self time is its CPU time minus that of its
child spans in the same process; a driver ``submit`` thus keeps only
the routing and IPC work the driver itself did.

The shard workers of ``MemoryService`` are forked from the traced
driver, so they inherit the wrappers.  Each worker starts with an empty
span buffer and writes its spans to a file when it stops.
:func:`merge` links every top-level worker span to the driver span that
caused it: the k-th batch a shard applied belongs to the k-th
``submit`` that routed requests to that shard, and likewise for reads.
A worker span counts as timed work when that driver span does.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import thread_time_ns

import numpy as np

#: ``(layer.call, module, class, method, items_arg)``: one span per
#: call.  ``items_arg`` is the index of the positional argument whose
#: length is the call's item count (``None`` for single-item calls).
SPANS = (
    ("lifetime.run", "repro.lifetime.simulator", "LifetimeSimulator", "run", None),
    ("service.submit", "repro.service.service", "MemoryService", "submit", 1),
    ("service.read", "repro.service.service", "MemoryService", "read", None),
    ("tier.write_batch", "repro.tier", "HybridController", "write_batch", 1),
    ("tier.read", "repro.tier", "HybridController", "read", None),
    ("core.write", "repro.core.controller", "CompressedPCMController", "write", None),
    ("core.write_batch", "repro.core.controller", "CompressedPCMController",
     "write_batch", 1),
    ("core.read", "repro.core.controller", "CompressedPCMController", "read", None),
    ("engine.scheduler.run", "repro.engine.scheduler", "BatchScheduler", "run", 1),
    ("engine.pipeline.write_line", "repro.engine.pipeline", "WritePipeline",
     "write_line", None),
    ("engine.pipeline.program_rows", "repro.engine.pipeline", "WritePipeline",
     "program_rows", 1),
    ("engine.stages.place", "repro.engine.stages", "PlacementStage", "place", None),
    ("compression.compress", "repro.compression.cache", "CachingCompressor",
     "compress", None),
    ("compression.compress_batch", "repro.compression.cache", "CachingCompressor",
     "compress_batch", 1),
    ("compression.decompress", "repro.compression.bdi", "BDICompressor",
     "decompress", None),
    ("compression.decompress", "repro.compression.fpc", "FPCCompressor",
     "decompress", None),
    ("pcm.write", "repro.pcm.bank", "PCMBankArray", "write", None),
    ("pcm.write_rows", "repro.pcm.bank", "PCMBankArray", "write_rows", 1),
    ("correction.verify", "repro.engine.stages", "CorrectionStage", "verify", None),
    ("correction.commit", "repro.engine.stages", "CorrectionStage", "commit", None),
    ("correction.commit_repairs", "repro.engine.stages", "CorrectionStage",
     "commit_repairs", None),
    ("energy.build_target", "repro.engine.stages", "EncodingStage",
     "build_target", None),
    ("energy.decode_read", "repro.engine.stages", "EncodingStage",
     "decode_read", None),
)

#: Calls that are counted, not timed: their time stays in the caller's
#: self time.  The best-of compressor runs on every compression-cache
#: miss and on every DRAM-tier admission probe.
COUNTS = (
    ("compression.bestof", "repro.compression.best", "BestOfCompressor",
     "compress", None),
    ("compression.bestof", "repro.compression.best", "BestOfCompressor",
     "compress_batch", 1),
)

#: Driver-side service calls whose work continues in a shard worker,
#: and the worker-side top-level call kind each one causes.
_APPLY, _READ = 0, 1


class Tracer:
    """In-memory span buffer of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for entry in SPANS + COUNTS:
            self.name_id(entry[0])
        #: 0 while timed work runs, 1 during untimed set-up and checks.
        self.phase = 1
        #: Where forked shard workers write their spans.
        self.dump_dir: str | None = None
        self.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.phases = array("B")
        self.items = array("i")
        self.stack: list[int] = []
        self.counts = [0] * len(self.names)
        #: Driver side: ``(span, shard, kind, sequence)`` per worker call.
        self.links: list[tuple[int, int, int, int]] = []
        self._sent: dict[tuple[int, int], int] = {}
        #: Worker side: the shard index, or -1 in the driver.
        self.shard = -1

    def link(self, span: int, shard: int, kind: int) -> None:
        """Record that ``span`` caused the next ``kind`` call on ``shard``."""
        key = (shard, kind)
        sequence = self._sent.get(key, 0)
        self._sent[key] = sequence + 1
        self.links.append((span, shard, kind, sequence))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phases, dtype=np.uint8).copy(),
            "items": np.frombuffer(self.items, dtype=np.int32).copy(),
            "counts": np.asarray(self.counts, dtype=np.int64),
            "shard": np.asarray([self.shard]),
        }


def _span_wrapper(tracer: Tracer, name: str, fn, items_arg, link):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        idx = len(tracer.name)
        stack = tracer.stack
        tracer.name.append(nid)
        tracer.parent.append(stack[-1] if stack else -1)
        tracer.phases.append(tracer.phase)
        tracer.items.append(len(args[items_arg]) if items_arg is not None else 1)
        tracer.end.append(0)
        if link is not None:
            link(tracer, idx, args)
        stack.append(idx)
        tracer.start.append(thread_time_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end[idx] = thread_time_ns()
            stack.pop()

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(tracer: Tracer, name: str, fn, items_arg):
    nid = tracer.name_id(name)

    def counted(*args, **kwargs):
        tracer.counts[nid] += len(args[items_arg]) if items_arg is not None else 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _link_submit(tracer: Tracer, idx: int, args) -> None:
    service, requests = args[0], args[1]
    shard_of = service.shard_map.shard_of
    for shard in sorted({shard_of(line) for line, _ in requests}):
        tracer.link(idx, shard, _APPLY)


def _link_read(tracer: Tracer, idx: int, args) -> None:
    service, line = args[0], args[1]
    tracer.link(idx, service.shard_map.shard_of(line), _READ)


_LINKS = {"service.submit": _link_submit, "service.read": _link_read}


def install(tracer: Tracer):
    """Wrap every traced call; returns a function that restores them."""
    patched: list[tuple[object, str, object]] = []
    for name, module, cls_name, method, items_arg in SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        patched.append((cls, method, original))
        setattr(cls, method, _span_wrapper(
            tracer, name, original, items_arg, _LINKS.get(name)
        ))
    for name, module, cls_name, method, items_arg in COUNTS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        patched.append((cls, method, original))
        setattr(cls, method, _count_wrapper(tracer, name, original, items_arg))

    service_module = importlib.import_module("repro.service.service")
    original_worker = service_module.shard_worker

    def traced_worker(spec, requests, replies):
        # Runs in the forked child: drop the spans inherited from the
        # driver, serve, then hand this worker's spans back by file.
        tracer.clear()
        tracer.shard = spec.index
        tracer.phase = 0
        try:
            original_worker(spec, requests, replies)
        finally:
            np.savez(_worker_path(tracer.dump_dir, spec.index), **tracer.arrays())

    patched.append((service_module, "shard_worker", original_worker))
    service_module.shard_worker = traced_worker

    def uninstall() -> None:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)

    return uninstall


def _worker_path(directory: str | None, shard: int) -> str:
    if directory is None:
        raise RuntimeError("tracer.dump_dir must be set before forking shards")
    return os.path.join(directory, f"spans-shard{shard}.npz")


def collect_workers(tracer: Tracer, shards: int) -> list[dict[str, np.ndarray]]:
    """Load (and delete) the span files the stopped shard workers wrote."""
    loaded = []
    for shard in range(shards):
        path = _worker_path(tracer.dump_dir, shard)
        with np.load(path) as data:
            loaded.append({key: data[key] for key in data.files})
        os.remove(path)
    return loaded


def merge(tracer: Tracer, workers: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One span table for the driver plus its workers.

    Worker spans are appended after the driver's; each worker root gets
    the driver span that caused it as parent (flagged ``remote``), and
    every worker span takes the phase of that driver span.
    """
    table = tracer.arrays()
    table["remote"] = np.zeros(len(table["name"]), dtype=bool)
    if not workers:
        return table
    caused = {(shard, kind, seq): span for span, shard, kind, seq in tracer.links}
    names = tracer.names
    parts = [table]
    offset = len(table["name"])
    for worker in workers:
        shard = int(worker["shard"][0])
        parent = worker["parent"].astype(np.int64)
        n = len(parent)
        remote = np.zeros(n, dtype=bool)
        root_of = np.empty(n, dtype=np.int64)
        new_parent = np.where(parent >= 0, parent + offset, -1)
        seen = [0, 0]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                root_of[i] = root_of[p]
                continue
            root_of[i] = i
            kind = _APPLY if names[worker["name"][i]].endswith("write_batch") else _READ
            key = (shard, kind, seen[kind])
            seen[kind] += 1
            if key not in caused:
                raise RuntimeError(f"worker span without a driver call: {key}")
            new_parent[i] = caused[key]
            remote[i] = True
        roots = new_parent[root_of]
        phase = table["phase"][roots]
        parts.append({
            "name": worker["name"], "start": worker["start"], "end": worker["end"],
            "parent": new_parent.astype(np.int32), "phase": phase.astype(np.uint8),
            "items": worker["items"], "remote": remote,
        })
        table["counts"] = table["counts"] + worker["counts"]
        offset += n
    merged = {
        key: np.concatenate([part[key] for part in parts])
        for key in ("name", "start", "end", "parent", "phase", "items", "remote")
    }
    merged["counts"] = table["counts"]
    return merged


def summarize(table: dict[str, np.ndarray], names: list[str]) -> dict[str, dict]:
    """Per-layer self CPU seconds, calls and items over the timed phase."""
    parent = table["parent"].astype(np.int64)
    duration = (table["end"] - table["start"]).astype(np.float64)
    covered = np.zeros(len(duration))
    local = (parent >= 0) & ~table["remote"]
    np.add.at(covered, parent[local], duration[local])
    self_ns = duration - covered
    timed = table["phase"] == 0
    summary: dict[str, dict] = {}
    for nid, name in enumerate(names):
        mask = timed & (table["name"] == nid)
        summary[name] = {
            "self_s": float(self_ns[mask].sum()) / 1e9,
            "calls": int(mask.sum()),
            "items": int(table["items"][mask].sum()),
            "counted": int(table["counts"][nid]),
        }
    return summary
