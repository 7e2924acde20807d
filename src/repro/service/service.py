"""Multi-process PCM memory service: sharded banks behind one front door.

:class:`MemoryService` runs one worker process per shard, each hosting
a complete range-aware :class:`~repro.core.CompressedPCMController`
over its slice of the global address space.  The parent routes an
incoming request stream by :class:`~repro.engine.address_space.ShardMap`,
fans per-shard batches out over request queues, and merges the
workers' counters into one fleet view.

Telemetry is written by the lifetime runner's JSONL emitter
(:class:`repro.lifetime.telemetry.JsonlObserver`): each worker appends
request-count driven ``shard_heartbeat`` events to
``shard-<i>/events.jsonl`` under the telemetry directory, and the
parent appends ``fleet_heartbeat`` events -- the exact merge of a
snapshot of every shard's counters -- to ``fleet.jsonl``.  Every
heartbeat and end event carries all counters under ``stats``
(:meth:`ControllerStats.to_dict`).

Fault tolerance reuses the sweep runner's quarantine discipline
(:func:`repro.engine.sweep.quarantine_run_dir`): when a shard worker
dies mid-run (crash or SIGTERM), its telemetry directory is quarantined
into ``attempt-<N>/``, a fresh worker is spawned from the same spec
(same seed, so the same endurance draws), and the shard's complete
routed request history is re-fed.  Because every component is
deterministic, the recovered shard's state is *bit-identical* to one
that never died -- recovery is recomputation, not approximation.  The
retry budget bounds how many deaths per shard are absorbed before
:class:`ServiceError` is raised.

Workers call :func:`repro.core.window.clear_window_caches` on teardown
-- the same lifecycle hole PR 3 closed for sweep workers -- so shard
restarts within one service (and services within one long-lived
process) never accumulate stale placement caches.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from dataclasses import dataclass, field

from ..core.config import SystemConfig
from ..core.window import LINE_BYTES
from ..engine.address_space import ShardMap, shard_seeds
from ..engine.context import ControllerStats
from ..engine.sweep import quarantine_run_dir
from ..lifetime.telemetry import JsonlObserver
from ..pcm import FaultMode

#: Default requests between per-shard heartbeat events.
DEFAULT_SHARD_HEARTBEAT = 1_000

#: Seconds the parent waits on a reply before re-checking liveness.
_POLL_SECONDS = 0.25

#: Seconds without any reply before the parent declares a worker hung.
DEFAULT_WORKER_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """A shard kept failing after its retry budget was exhausted."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its shard (fully pickleable)."""

    index: int
    config: SystemConfig
    start: int
    stop: int
    endurance_mean: float
    endurance_cov: float
    seed: int
    n_banks: int
    fault_mode: FaultMode
    cell_type: str
    telemetry_dir: str | None
    heartbeat_interval: int


@dataclass(frozen=True)
class ServiceResult:
    """Final fleet view of one service run."""

    shards: int
    total_lines: int
    requests_routed: int
    recoveries: int
    dead_fraction: float
    stats: ControllerStats
    shard_stats: list[ControllerStats] = field(default_factory=list)
    shard_writes: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form (golden comparisons, CLI output)."""
        return {
            "shards": self.shards,
            "total_lines": self.total_lines,
            "requests_routed": self.requests_routed,
            "recoveries": self.recoveries,
            "dead_fraction": self.dead_fraction,
            "stats": self.stats.to_dict(),
            "shard_stats": [s.to_dict() for s in self.shard_stats],
            "shard_writes": list(self.shard_writes),
        }


def _build_controller(spec: ShardSpec):
    """Construct the shard's controller exactly as a respawn would."""
    import numpy as np

    from ..core.controller import CompressedPCMController
    from ..engine.address_space import AddressRange
    from ..pcm import EnduranceModel

    controller = CompressedPCMController(
        config=spec.config,
        n_lines=spec.stop - spec.start,
        endurance_model=EnduranceModel(
            mean=spec.endurance_mean, cov=spec.endurance_cov
        ),
        rng=np.random.default_rng(spec.seed),
        n_banks=spec.n_banks,
        fault_mode=spec.fault_mode,
        cell_type=spec.cell_type,
        address_range=AddressRange(spec.start, spec.stop),
    )
    if spec.config.tier_lines:
        from ..tier import HybridController

        # The tier is part of the spec, so a recovery respawn rebuilds
        # it too and the history replay reconstructs its residents --
        # exact recovery holds for hybrid shards unchanged.
        controller = HybridController(controller, spec.config.tier_lines)
    return controller


def shard_worker(spec: ShardSpec, requests: mp.Queue, replies: mp.Queue) -> None:
    """Worker-process entry point: one shard's serve loop."""
    from ..core.window import clear_window_caches

    writer = None
    if spec.telemetry_dir is not None:
        writer = JsonlObserver(
            os.path.join(
                spec.telemetry_dir, f"shard-{spec.index}", "events.jsonl"
            )
        )
    try:
        controller = _build_controller(spec)
        if writer is not None:
            writer.emit("shard_start", {
                "shard": spec.index,
                "range": [spec.start, spec.stop],
                "system": spec.config.name,
                "seed": spec.seed,
            })
        served = 0
        last_beat = 0
        while True:
            command = requests.get()
            kind = command[0]
            if kind == "apply":
                batch = command[1]
                controller.write_batch(batch)
                served += len(batch)
                if writer is not None and (
                    served // spec.heartbeat_interval
                    > last_beat // spec.heartbeat_interval
                ):
                    writer.emit("shard_heartbeat", {
                        "shard": spec.index,
                        "requests_served": served,
                        "dead_fraction": controller.dead_fraction,
                        "stats": controller.stats.to_dict(),
                    })
                last_beat = served
                replies.put(("applied", spec.index, served))
            elif kind == "read":
                replies.put(("data", spec.index, controller.read(command[1])))
            elif kind == "snapshot":
                replies.put((
                    "snapshot", spec.index, controller.stats,
                    controller.engine.dead_count,
                    controller.engine.capacity_lines, served,
                ))
            elif kind == "stop":
                if writer is not None:
                    writer.emit("shard_end", {
                        "shard": spec.index,
                        "requests_served": served,
                        "dead_fraction": controller.dead_fraction,
                        "stats": controller.stats.to_dict(),
                    })
                replies.put(("stopped", spec.index, served))
                return
            else:  # pragma: no cover - protocol misuse guard
                raise ValueError(f"unknown service command {kind!r}")
    finally:
        # Worker teardown: the placement caches in repro.core.window are
        # module-global; clearing them here keeps forked workers (and
        # any in-process fallback runs) from leaking them across shard
        # restarts.
        clear_window_caches()
        if writer is not None:
            writer.close()


class MemoryService:
    """Sharded multi-process PCM memory fleet with exact-recovery retries.

    Args:
        config: The system configuration every shard runs.
        total_lines: Global logical address-space size.
        shards: Worker processes / address-space slices.
        endurance_mean / endurance_cov: Per-cell endurance model.
        seed: Base seed; per-shard seeds derive via
            :func:`repro.engine.address_space.shard_seeds` (one shard
            keeps it unchanged -- the golden-digest identity).
        telemetry_dir: When set, per-shard JSONL streams are written to
            ``shard-<i>/events.jsonl`` and the fleet view to
            ``fleet.jsonl`` under it.  None disables all telemetry.
        heartbeat_interval: Requests between shard heartbeat events.
        fleet_interval: Routed requests between fleet heartbeat events.
        retries: Worker deaths absorbed *per shard* before
            :class:`ServiceError`.
        worker_timeout: Seconds without any reply from a live worker
            before it is declared hung and restarted.
        tier_lines: Per-shard content-aware DRAM front tier capacity
            (:mod:`repro.tier`), overriding ``config.tier_lines``;
            ``None`` (default) keeps the config's value, and 0 runs
            bare shards.
    """

    def __init__(
        self,
        config: SystemConfig,
        total_lines: int,
        shards: int = 1,
        endurance_mean: float = 100.0,
        endurance_cov: float = 0.15,
        seed: int = 0,
        n_banks: int = 8,
        fault_mode: FaultMode = FaultMode.STUCK_AT_LAST,
        cell_type: str = "slc",
        telemetry_dir: str | None = None,
        heartbeat_interval: int = DEFAULT_SHARD_HEARTBEAT,
        fleet_interval: int = DEFAULT_SHARD_HEARTBEAT,
        retries: int = 2,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        tier_lines: int | None = None,
    ) -> None:
        if heartbeat_interval < 1 or fleet_interval < 1:
            raise ValueError("heartbeat intervals must be >= 1")
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if tier_lines is not None:
            config = config.with_overrides(tier_lines=tier_lines)
        self.shard_map = ShardMap(total_lines, shards)
        self.total_lines = total_lines
        self.telemetry_dir = telemetry_dir
        self.fleet_interval = fleet_interval
        self.retries = retries
        self.worker_timeout = worker_timeout
        seeds = shard_seeds(seed, shards)
        self.specs = [
            ShardSpec(
                index=index,
                config=config,
                start=shard_range.start,
                stop=shard_range.stop,
                endurance_mean=endurance_mean,
                endurance_cov=endurance_cov,
                seed=shard_seed,
                n_banks=n_banks,
                fault_mode=fault_mode,
                cell_type=cell_type,
                telemetry_dir=telemetry_dir,
                heartbeat_interval=heartbeat_interval,
            )
            for index, (shard_range, shard_seed) in enumerate(
                zip(self.shard_map.ranges, seeds)
            )
        ]
        self._ctx = mp.get_context()
        self._workers: list[mp.Process | None] = [None] * shards
        self._requests: list[mp.Queue | None] = [None] * shards
        self._replies: list[mp.Queue | None] = [None] * shards
        #: Complete routed request history per shard -- the exact-recovery
        #: source: a respawned worker replays it to reconstruct, bit for
        #: bit, the state the dead worker held.
        self._history: list[list[list]] = [[] for _ in range(shards)]
        self._attempts = [0] * shards
        self._served = [0] * shards
        self.requests_routed = 0
        self.recoveries = 0
        self._last_fleet_beat = 0
        self._fleet_writer = (
            JsonlObserver(os.path.join(telemetry_dir, "fleet.jsonl"))
            if telemetry_dir is not None
            else None
        )
        self._started = False

    # -- lifecycle -------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self.specs)

    def __enter__(self) -> "MemoryService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> None:
        """Spawn one worker process per shard."""
        if self._started:
            raise RuntimeError("service already started")
        for index in range(self.shards):
            self._spawn(index)
        self._started = True
        if self._fleet_writer is not None:
            self._fleet_writer.emit("service_start", {
                "shards": self.shards,
                "total_lines": self.total_lines,
                "system": self.specs[0].config.name,
                "ranges": [
                    [r.start, r.stop] for r in self.shard_map.ranges
                ],
            })

    def _spawn(self, index: int) -> None:
        requests: mp.Queue = self._ctx.Queue()
        replies: mp.Queue = self._ctx.Queue()
        worker = self._ctx.Process(
            target=shard_worker,
            args=(self.specs[index], requests, replies),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        worker.start()
        self._workers[index] = worker
        self._requests[index] = requests
        self._replies[index] = replies

    def worker_pid(self, shard: int) -> int:
        """The shard worker's current OS pid (for external kill tests)."""
        worker = self._workers[shard]
        if worker is None or worker.pid is None:
            raise RuntimeError(f"shard {shard} has no running worker")
        return worker.pid

    def stop(self) -> ServiceResult | None:
        """Stop every worker; returns the final fleet result once."""
        if not self._started:
            return None
        result = self.result()
        for index in range(self.shards):
            try:
                self._send(index, ("stop",))
                self._await(index, "stopped", ("stop",))
            except ServiceError:
                pass  # already collecting the final state; best effort
            worker = self._workers[index]
            if worker is not None:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - hung worker
                    worker.terminate()
                self._workers[index] = None
        if self._fleet_writer is not None:
            self._fleet_writer.emit("service_end", {
                "requests_routed": self.requests_routed,
                "recoveries": self.recoveries,
                "dead_fraction": result.dead_fraction,
                "stats": result.stats.to_dict(),
            })
            self._fleet_writer.close()
        self._started = False
        return result

    # -- request path ----------------------------------------------------

    def submit(self, requests) -> None:
        """Route a batch of ``(line, data)`` requests to their shards.

        Per-shard order follows stream order (all that matters for
        bit-identity across disjoint shards); the call returns once
        every involved worker has applied its sub-batch, so a
        subsequent :meth:`read` observes the writes.  A malformed
        request (a line outside the address space, a payload that is
        not one line long) raises before anything is routed.
        """
        self._require_started()
        buckets: list[list] = [[] for _ in range(self.shards)]
        for line, data in requests:
            # Checked here, not in the worker: a batch that kills its
            # worker would kill every respawn that replays the history.
            if len(data) != LINE_BYTES:
                raise ValueError(f"write data must be {LINE_BYTES} bytes")
            buckets[self.shard_map.shard_of(line)].append((line, data))
        sent = [False] * self.shards
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            sent[index] = self._dispatch_apply(index, bucket)
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            # A batch already absorbed by a recovery replay must not be
            # awaited (it was never sent); resync its acknowledgement.
            reply = (
                self._await(index, "applied")
                if sent[index]
                else self._resync(index)
            )
            self._served[index] = reply[2]
            self.requests_routed += len(bucket)
        self._maybe_fleet_heartbeat()

    def _dispatch_apply(self, index: int, bucket: list) -> bool:
        """Record and send one shard batch; False when a recovery
        triggered at dispatch time already replayed it (the batch joins
        the history *before* the liveness check precisely so the replay
        covers it exactly once)."""
        self._history[index].append(bucket)
        worker = self._workers[index]
        if worker is None or not worker.is_alive():
            self._recover(index)
            return False
        self._requests[index].put(("apply", bucket))
        return True

    def read(self, line: int) -> bytes | None:
        """Read one global line from its owning shard."""
        self._require_started()
        shard = self.shard_map.shard_of(line)
        command = ("read", line)
        self._send(shard, command)
        return self._await(shard, "data", command)[2]

    # -- fleet views -----------------------------------------------------

    def snapshot(self) -> list[tuple[ControllerStats, int, int, int]]:
        """Each shard's ``(stats, dead_blocks, capacity, served)`` now."""
        self._require_started()
        for index in range(self.shards):
            self._send(index, ("snapshot",))
        return [
            self._await(index, "snapshot", ("snapshot",))[2:]
            for index in range(self.shards)
        ]

    def stats(self) -> ControllerStats:
        """The exact fleet aggregate of every shard's counters."""
        return ControllerStats.merge_all(
            shard[0] for shard in self.snapshot()
        )

    def result(self) -> ServiceResult:
        """The complete fleet view (exact sums of shard views)."""
        shards = self.snapshot()
        merged = ControllerStats.merge_all(shard[0] for shard in shards)
        dead = sum(shard[1] for shard in shards)
        capacity = sum(shard[2] for shard in shards)
        return ServiceResult(
            shards=self.shards,
            total_lines=self.total_lines,
            requests_routed=self.requests_routed,
            recoveries=self.recoveries,
            dead_fraction=dead / capacity,
            stats=merged,
            shard_stats=[shard[0] for shard in shards],
            shard_writes=[shard[3] for shard in shards],
        )

    def _maybe_fleet_heartbeat(self) -> None:
        if self._fleet_writer is None:
            return
        if (
            self.requests_routed // self.fleet_interval
            == self._last_fleet_beat // self.fleet_interval
        ):
            self._last_fleet_beat = self.requests_routed
            return
        self._last_fleet_beat = self.requests_routed
        result = self.result()
        self._fleet_writer.emit("fleet_heartbeat", {
            "requests_routed": self.requests_routed,
            "recoveries": self.recoveries,
            "shard_requests": result.shard_writes,
            "dead_fraction": result.dead_fraction,
            "stats": result.stats.to_dict(),
        })

    # -- failure handling ------------------------------------------------

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("service not started (use start() or `with`)")

    def _send(self, index: int, command: tuple) -> None:
        self._ensure_alive(index)
        self._requests[index].put(command)

    def _await(
        self, index: int, expected: str, command: tuple | None = None
    ) -> tuple:
        """Wait for one reply, recovering the shard if its worker died.

        On worker death the in-flight command is *not* lost.  Recovery
        replays the shard's full history, which includes any pending
        ``apply`` (``command`` is None), so its acknowledgement is
        resynced; any other in-flight ``command`` (a read, snapshot or
        stop) is re-sent to the fresh worker.  Either way the returned
        reply reflects exactly the state a never-interrupted worker
        would have reached.
        """
        deadline = time.monotonic() + self.worker_timeout
        while True:
            try:
                reply = self._replies[index].get(timeout=_POLL_SECONDS)
            except queue.Empty:
                worker = self._workers[index]
                alive = worker is not None and worker.is_alive()
                if alive and time.monotonic() <= deadline:
                    continue
                if alive:  # hung: no reply within worker_timeout
                    worker.terminate()
                    worker.join(timeout=10)
                self._recover(index)
                if command is None:
                    return self._resync(index)
                self._requests[index].put(command)
                deadline = time.monotonic() + self.worker_timeout
                continue
            if reply[0] != expected:  # pragma: no cover - protocol guard
                raise ServiceError(
                    f"shard {index}: expected {expected!r} reply, "
                    f"got {reply[0]!r}"
                )
            return reply

    def _resync(self, index: int) -> tuple:
        """Post-recovery ``applied`` acknowledgement from a snapshot."""
        self._send(index, ("snapshot",))
        return (
            "applied", index,
            self._await(index, "snapshot", ("snapshot",))[-1],
        )

    def _ensure_alive(self, index: int) -> None:
        worker = self._workers[index]
        if worker is None or not worker.is_alive():
            self._recover(index)

    def _recover(self, index: int) -> None:
        """Quarantine, respawn, and replay a dead shard worker."""
        self._attempts[index] += 1
        if self._attempts[index] > self.retries:
            raise ServiceError(
                f"shard {index} worker died {self._attempts[index]} time(s); "
                f"retry budget of {self.retries} exhausted"
            )
        worker = self._workers[index]
        exitcode = worker.exitcode if worker is not None else None
        if worker is not None:
            worker.join(timeout=10)
        quarantine = None
        if self.telemetry_dir is not None:
            quarantine = quarantine_run_dir(
                os.path.join(self.telemetry_dir, f"shard-{index}"),
                self._attempts[index],
            )
        self._spawn(index)
        for batch in self._history[index]:
            self._requests[index].put(("apply", batch))
        # Drain the replay acknowledgements; the worker is fresh, so
        # these arrive in order with no interleaving.
        for _ in self._history[index]:
            self._served[index] = self._await(index, "applied")[2]
        self.recoveries += 1
        if self._fleet_writer is not None:
            self._fleet_writer.emit("shard_recovered", {
                "shard": index,
                "attempt": self._attempts[index],
                "exitcode": exitcode,
                "replayed_batches": len(self._history[index]),
                "requests_served": self._served[index],
                "quarantine": quarantine,
            })
