"""The three benchmark workloads: inputs, set-up, timed chunks, checks.

Each workload names its system as a base system plus overrides through
``resolve_config`` (never a registry twin name), generates its request
stream from the seed before any clock starts, and runs in *rounds*.  A
round builds a fresh system (untimed), runs the same fixed stream in
equal chunks (timed one by one), then reads every line back and
collects the simulated totals (untimed).  Every round of one seed does
identical work, so its totals must repeat exactly.

A :class:`Round` yields the number of requests completed after each
chunk; the harness times the chunks between those yields.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Iterator

from repro.core import SystemConfig
from repro.engine.registry import resolve_config
from repro.lifetime import LifetimeSimulator
from repro.service import MemoryService, make_stream
from repro.traces import SyntheticWorkload, Trace, WriteBack, get_profile

#: The seed whose simulated totals are pinned below.
DEFAULT_SEED = 1

#: Simulated totals of one round at :data:`DEFAULT_SEED` (full size).
PINNED: dict[str, dict] = {
    "lifetime_wearout": {
        "writes": 57344, "total_flips": 1806993, "deaths": 205,
        "revivals": 110, "lost_writes": 28768, "gap_move_writes": 572,
        "repair_commits": 8057, "batch_waves": 0,
        "compression_cache_hits": 3010, "compression_cache_misses": 26343,
    },
    "steady_batch": {
        "writes": 65536, "total_flips": 11484795, "gap_move_writes": 645,
        "batch_waves": 552, "batch_wave_ops": 66181, "barrier_gap_move": 0,
        "barrier_collision": 0, "barrier_ineligible_row": 0,
        "compression_cache_hits": 65669, "compression_cache_misses": 512,
    },
    "fleet_mixed": {
        "requests_routed": 8192, "total_flips": 490349, "gap_move_writes": 37,
        "encoded_words": 17584, "batch_waves": 0, "tier_hits": 2613,
        "tier_coalesced_writes": 1958, "tier_pcm_writes_avoided": 5145,
        "tier_evictions": 3139, "compression_cache_hits": 376,
        "compression_cache_misses": 5847,
    },
}

#: Endurance far above any round's writes per line: nothing wears out.
HEALTHY_ENDURANCE = 1e6


def _stats_totals(stats) -> dict:
    """Every ``ControllerStats`` counter, JSON-ready."""
    totals = dataclasses.asdict(stats)
    totals["heuristic_steps"] = sorted(stats.heuristic_steps.items())
    return totals


def _vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def _cpu_seconds(pid: int) -> float:
    """CPU seconds every thread of ``pid`` has run (``schedstat``, ns)."""
    total = 0
    tasks = f"/proc/{pid}/task"
    for tid in os.listdir(tasks):
        with open(f"{tasks}/{tid}/schedstat") as stat:
            total += int(stat.read().split()[0])
    return total / 1e9


def _check_sweep(read, expected: dict[int, bytes], lines: int, dead) -> list[str]:
    """Read every line back: each must hold its last written payload.

    ``None`` is accepted only where ``dead(line)`` says the controller
    lost the line.
    """
    errors = []
    for line in range(lines):
        got = read(line)
        want = expected.get(line)
        if got != want and not (got is None and dead(line)):
            errors.append(f"line {line}: read {got!r:.40} expected {want!r:.40}")
    return errors


class Round:
    """One fresh system driven through one workload's fixed stream."""

    def steps(self) -> Iterator[int]:
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by every process serving requests."""
        return time.process_time()

    def finish(self) -> tuple[dict, list[str], float]:
        """Untimed: ``(simulated totals, correctness errors, peak MiB)``."""
        raise NotImplementedError


class _SimulatorRound(Round):
    """A round driven through ``LifetimeSimulator`` over a trace."""

    def __init__(self, workload: _SimulatorWorkload, seed: int, trace: Trace) -> None:
        self.workload = workload
        self.trace = trace
        self.sim = workload.build(seed, trace)


class _SimulatorWorkload:
    """The two single-process workloads: one simulator over a trace."""

    profile: str
    lines: int
    endurance: float
    config: SystemConfig
    round_class: type[_SimulatorRound]

    def build(self, seed: int, trace: Trace) -> LifetimeSimulator:
        return LifetimeSimulator(
            self.config, trace, n_lines=self.lines,
            endurance_mean=self.endurance, endurance_cov=0.15, seed=seed,
        )

    def ready(self, seed: int):
        self.build(seed, Trace(self.profile, self.lines, [WriteBack(0, bytes(64))]))
        return lambda: None

    def open(self, seed: int, trace: Trace) -> Round:
        return self.round_class(self, seed, trace)


# -- lifetime_wearout ------------------------------------------------------


class _LifetimeRound(_SimulatorRound):
    result = None

    def steps(self) -> Iterator[int]:
        sim, chunk, cap = self.sim, self.workload.chunk, self.workload.max_writes
        done = 0
        while True:
            self.result = sim.run(max_writes=done + chunk)
            yield self.result.writes_issued - done
            done = self.result.writes_issued
            if self.result.failed or done >= cap:
                return

    def finish(self) -> tuple[dict, list[str], float]:
        result, sim = self.result, self.sim
        errors = [] if result.failed else [
            f"memory still alive after {result.writes_issued} writes"
        ]
        writes = self.trace.writes
        expected: dict[int, bytes] = {}
        for k in range(result.writes_issued):
            write = writes[k % len(writes)]
            expected[write.line] = write.data
        controller = sim.controller
        remap = controller.pipeline.remap
        errors += _check_sweep(
            controller.read, expected, sim.n_lines,
            lambda line: bool(controller.dead[remap.map_logical(line)]),
        )
        totals = _stats_totals(controller.stats)
        totals["writes"] = result.writes_issued
        totals["failed"] = result.failed
        return totals, errors, _vm_hwm_mb()


class LifetimeWearout(_SimulatorWorkload):
    """Comp+WF on mcf, serial (``batch=1``) until half the lines are dead.

    The paper's Fig. 10 path: compression, the serial place/program/
    verify loop, correction, Start-Gap relocation, death and revival do
    all the work; the batch scheduler does none.  The mcf stream is
    mostly distinct payloads, so the compression cache mostly misses.
    """

    name = "lifetime_wearout"
    profile = "mcf"
    round_class = _LifetimeRound

    def __init__(self, tiny: bool = False) -> None:
        self.lines = 32 if tiny else 128
        self.endurance = 12.0 if tiny else 60.0
        self.trace_writes = 4096 if tiny else 65536
        self.chunk = 64 if tiny else 256
        #: Safety stop: a memory that outlives this many writes fails
        #: the correctness check instead of running on.
        self.max_writes = 16 * self.trace_writes
        self.config = resolve_config("comp_wf")

    def inputs(self, seed: int) -> Trace:
        # Every seed replays the same mcf stream; the seed draws the
        # chip's endurance map in build().  Writes to failure are very
        # sensitive to which lines the stream makes hot: over five
        # seeds, a fresh stream per seed gave 48,000-57,344 writes,
        # relabelled lines 49,792-56,576 and rotated lines
        # 50,432-61,376, and the CPU time per round did not follow, so
        # writes/s moved with the seed alone.  Fresh endurance maps
        # gave 57,344-59,264.
        return SyntheticWorkload(
            get_profile(self.profile), n_lines=self.lines, seed=DEFAULT_SEED
        ).generate_trace(self.trace_writes)


# -- steady_batch ----------------------------------------------------------


class _SteadyRound(_SimulatorRound):
    def steps(self) -> Iterator[int]:
        workload, sim = self.workload, self.sim
        for done in range(0, len(self.trace), workload.chunk):
            # The simulator cuts epochs at every failure check, so the
            # check interval is the batch size: epochs of exactly 128.
            sim.run(
                max_writes=done + workload.chunk, batch=workload.batch,
                check_interval=workload.batch,
            )
            yield workload.chunk

    def finish(self) -> tuple[dict, list[str], float]:
        controller = self.sim.controller
        expected = {write.line: write.data for write in self.trace.writes}
        errors = _check_sweep(
            controller.read, expected, self.sim.n_lines, lambda line: False
        )
        totals = _stats_totals(controller.stats)
        totals["writes"] = self.sim.writes_issued
        if totals["deaths"] or controller.memory.fault_counts.any():
            errors.append("cells wore out in a run meant to stay healthy")
        return totals, errors, _vm_hwm_mb()


class SteadyBatch(_SimulatorWorkload):
    """Comp+WF, healthy lines, round-robin writes in batches of 128.

    The out-of-order scheduler's scan and decide/commit loop,
    ``program_rows`` and ``PCMBankArray.write_rows`` do most of the
    work.  512 distinct gcc payloads fit the 1024-entry compression
    cache, so compression is all cache hits.
    """

    name = "steady_batch"
    profile = "gcc"
    endurance = HEALTHY_ENDURANCE
    round_class = _SteadyRound

    def __init__(self, tiny: bool = False) -> None:
        self.lines = 128 if tiny else 1024
        self.payloads = 64 if tiny else 512
        self.writes = 4096 if tiny else 65536
        self.chunk = 1024 if tiny else 4096
        self.batch = 128
        self.config = resolve_config("comp_wf")

    def inputs(self, seed: int) -> Trace:
        generator = SyntheticWorkload(
            get_profile(self.profile), n_lines=self.lines, seed=seed
        )
        payloads: list[bytes] = []
        seen: set[bytes] = set()
        while len(payloads) < self.payloads:
            data = generator.next_write().data
            if data not in seen:
                seen.add(data)
                payloads.append(data)
        # Line k % lines (consecutive lines sit in consecutive banks);
        # the payload index shifts by one per pass, so every rewrite of
        # a line carries new content.
        writes = [
            WriteBack(k % self.lines, payloads[(k + k // self.lines) % self.payloads])
            for k in range(self.writes)
        ]
        return Trace(self.profile, self.lines, writes)


# -- fleet_mixed -----------------------------------------------------------


@dataclasses.dataclass
class FleetInputs:
    #: Per submit: the 64 ``(line, payload)`` writes, then the
    #: ``(line, expected payload)`` reads issued right after it.
    batches: list[tuple[list[tuple[int, bytes]], list[tuple[int, bytes]]]]
    #: Every line's last payload after the whole stream.
    final: dict[int, bytes]


class _FleetRound(Round):
    def __init__(self, workload: FleetMixed, seed: int, inputs: FleetInputs) -> None:
        self.workload = workload
        self.inputs = inputs
        # Driver and shard workers share one vCPU for the round.  Spread
        # over both, CPU time per request rose by up to 20 % whenever the
        # host stopped running the two vCPUs at once (wall/CPU time fell
        # from 1.6 to 1.0), which the single-thread reference loop
        # cannot see: over ten runs the normalised rate spread 8.4 %.
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.service = workload.build(seed)
        self.pids = [self.service.worker_pid(i) for i in range(workload.shards)]
        self.mismatches: list[str] = []

    def cpu_seconds(self) -> float:
        return time.process_time() + sum(_cpu_seconds(pid) for pid in self.pids)

    def steps(self) -> Iterator[int]:
        submit, read = self.service.submit, self.service.read
        mismatches = self.mismatches
        per_chunk = self.workload.chunk_submits
        batches = self.inputs.batches
        for first in range(0, len(batches), per_chunk):
            done = 0
            for writes, reads in batches[first:first + per_chunk]:
                submit(writes)
                for line, want in reads:
                    if read(line) != want:
                        mismatches.append(f"read of line {line} after submit")
                done += len(writes) + len(reads)
            yield done

    def finish(self) -> tuple[dict, list[str], float]:
        service = self.service
        try:
            result = service.result()
            errors = list(self.mismatches)
            errors += _check_sweep(
                service.read, self.inputs.final, service.total_lines,
                lambda line: False,
            )
            peak = _vm_hwm_mb() + sum(_vm_hwm_mb(pid) for pid in self.pids)
        finally:
            service.stop()
            os.sched_setaffinity(0, self.affinity)
        totals = _stats_totals(result.stats)
        totals["requests_routed"] = result.requests_routed
        totals["recoveries"] = result.recoveries
        if result.recoveries or result.dead_fraction:
            errors.append("a shard died or lost lines in a healthy run")
        return totals, errors, peak


class FleetMixed:
    """Two-shard ``MemoryService``: memcached writes plus read-backs.

    Comp+WF with restricted-coset encoding and a 24-line DRAM tier per
    shard, driven by two interleaved memcached tenants.  Requests go 64
    at a time (the ``serve`` default); after each submit the driver
    reads back one just-written line per 8 writes.  Encoded writes fall
    back to the serial loop in the shards.
    """

    name = "fleet_mixed"

    def __init__(self, tiny: bool = False) -> None:
        self.lines = 256 if tiny else 2048
        self.shards = 2
        self.submits = 16 if tiny else 128
        self.submit_size = 64
        self.chunk_submits = 4 if tiny else 16
        self.read_every = 8
        self.tenants = 2
        self.config = resolve_config("comp_wf", encoding="coset", tier_lines=24)

    def inputs(self, seed: int) -> FleetInputs:
        # Two memcached tenants, interleaved request by request.  Zipf
        # popularity puts about 30 % of one stream's writes on its ten
        # hottest keys, so the payloads of a handful of lines set the
        # cost: one stream per seed moved the normalised rate by about
        # 5 % between seeds.
        streams = [
            make_stream("memcached", self.lines, seed * self.tenants + tenant)
            for tenant in range(self.tenants)
        ]
        last: dict[int, bytes] = {}
        batches = []
        for _ in range(self.submits):
            requests = [
                streams[i % self.tenants].next_request()
                for i in range(self.submit_size)
            ]
            writes = [(r.line, r.data) for r in requests]
            for line, data in writes:
                last[line] = data
            reads = [
                (writes[j][0], last[writes[j][0]])
                for j in range(self.read_every - 1, len(writes), self.read_every)
            ]
            batches.append((writes, reads))
        return FleetInputs(batches, last)

    def build(self, seed: int) -> MemoryService:
        service = MemoryService(
            self.config, self.lines, shards=self.shards,
            endurance_mean=HEALTHY_ENDURANCE, endurance_cov=0.15, seed=seed,
            tier_lines=self.config.tier_lines,
        )
        service.start()
        service.snapshot()  # every shard has built its controller
        return service

    def ready(self, seed: int):
        return self.build(seed).stop

    def open(self, seed: int, inputs: FleetInputs) -> Round:
        return _FleetRound(self, seed, inputs)


WORKLOADS = {w.name: w for w in (LifetimeWearout, SteadyBatch, FleetMixed)}
