"""Hot-path performance benchmarks (compression cache + fault tracking).

Unlike the figure/table benchmarks, this file measures the *simulator*
rather than the simulated memory: end-to-end writes/sec per system on a
cycled trace, plus microbenchmarks of the two dominant per-write costs
(the content-addressed compression cache and ``apply_write``).  Results
land in ``benchmarks/results/BENCH_hotpath.json`` next to recorded
before/after reference numbers so regressions are visible at a glance.

Timing assertions are deliberately loose (shared CI runners drift by
tens of percent); the *blocking* assertions are the behavioural ones --
cache counters, outcome bookkeeping, and cache-on vs cache-off
simulation equivalence.

The end-to-end scenario is pinned (workload, trace seed, line count,
endurance, simulator seed) so numbers stay comparable with the recorded
references; only the replay length and repetition count scale down for
smoke runs:

======================  =======  =========================================
variable                default  meaning
======================  =======  =========================================
``REPRO_HOTPATH_WRITES``   8000  cycled write-backs replayed per system
``REPRO_HOTPATH_REPS``        3  in-process repetitions (best-of is kept)
======================  =======  =========================================

Methodology note: wall-clock on a busy machine varies run to run by
20-40 %, so each measurement is the best of ``REPS`` in-process
repetitions, and the recorded references were taken as best-of across
interleaved before/after process pairs on the same machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.compression import BestOfCompressor, CachingCompressor
from repro.core import EVALUATED_SYSTEMS, CompressedPCMController, make_config
from repro.lifetime import LifetimeSimulator
from repro.pcm import EnduranceModel, apply_write
from repro.traces import SyntheticWorkload, Trace, get_profile

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_hotpath.json"


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))

# -- pinned end-to-end scenario (do not scale: comparability anchor) ----
N_LINES = 96
TRACE_WORKLOAD = "gcc"
TRACE_WRITES = 500
TRACE_SEED = 5
ENDURANCE_MEAN = 1000.0  # wear-free steady state: the hot path
SIM_SEED = 7

REPLAY_WRITES = _env_int("REPRO_HOTPATH_WRITES", 8000)
REPS = _env_int("REPRO_HOTPATH_REPS", 3)

#: Batch width for the batched-engine end-to-end comparison (the
#: acceptance point of the out-of-order scheduler; see
#: ``test_batched_throughput``).
BATCH_SIZE = 128

#: Blocking floor for ``test_batched_throughput``: the scheduler must
#: sustain at least this many times the serial throughput at
#: ``BATCH_SIZE`` on the bank-interleaved scenario.  Measured
#: interleaved best-of-REPS in one process, so machine drift hits both
#: sides; the dev-container headroom is ~4.6-5.0x.
BATCH_SPEEDUP_GATE = 4.0

#: Non-blocking batch-width sweep (see ``test_batch_size_sweep``).
SWEEP_SIZES = (8, 32, 128)

#: Recorded writes/sec on the development machine (best-of interleaved
#: process pairs, full 8000-write replay).  "before" is the commit that
#: landed the engine pipeline (9b5fc1a); "after" is this PR's hot-path
#: overhaul.  Absolute numbers are machine-specific; the *ratios* are
#: the deliverable.
RECORDED_REFERENCE = {
    "machine": "dev container, Linux x86-64",
    "methodology": "best-of-3 in-process reps, interleaved before/after "
    "process pairs (machine drift is 20-40% run to run)",
    "replay_writes": 8000,
    "before": {
        "commit": "9b5fc1a",
        "writes_per_sec": {
            "baseline": 19009.3,
            "comp": 7496.4,
            "comp_w": 7656.7,
            "comp_wf": 7701.9,
        },
    },
    "after": {
        "commit": "this PR",
        "writes_per_sec": {
            "baseline": 63447.7,
            "comp": 39209.3,
            "comp_w": 34398.6,
            "comp_wf": 39451.0,
        },
    },
}


def _commit() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            check=True,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _merge_json(section: str, payload) -> None:
    """Update one section of BENCH_hotpath.json, keeping the others.

    Every section written is stamped with the commit, the core count
    and the numpy and Python versions it was measured with.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    data = {}
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text())
    data["recorded_reference"] = RECORDED_REFERENCE
    data[section] = {
        **payload,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _build_trace():
    workload = SyntheticWorkload(
        get_profile(TRACE_WORKLOAD), n_lines=N_LINES, seed=TRACE_SEED
    )
    return workload.generate_trace(TRACE_WRITES)


def _build_parallel_trace():
    """The pinned payload stream with bank-interleaved addresses.

    Same workload, seed, length, and payloads as :func:`_build_trace`,
    but the address stream visits the lines round-robin -- the
    line-parallel drain order a memory controller sees when write-backs
    spread across banks, and the scenario the batched engine exists
    for.  Serial and batched replays of this trace issue the identical
    write sequence, so the batch=1 vs batch=K comparison is apples to
    apples.
    """
    trace = _build_trace()
    writes = [
        dataclasses.replace(write, line=index % N_LINES)
        for index, write in enumerate(trace.writes)
    ]
    return Trace(trace.workload, trace.n_lines, writes)


def _replay_once(system: str, trace, batch: int = 1) -> float:
    """One timed replay; returns writes/sec.

    Batched replays align the failure-check cadence to the batch width
    (``check_interval=max(64, batch)``) so epochs are not truncated
    below the requested batch size -- the serial runs keep the
    simulator default, which checks more often, not less.
    """
    simulator = LifetimeSimulator(
        config=make_config(system, intra_counter_limit=64),
        source=trace,
        n_lines=N_LINES,
        endurance_mean=ENDURANCE_MEAN,
        seed=SIM_SEED,
    )
    start = time.perf_counter()
    simulator.run(
        max_writes=REPLAY_WRITES, batch=batch,
        check_interval=max(64, batch),
    )
    return REPLAY_WRITES / (time.perf_counter() - start)


def _replay_wave_stats(system: str, trace, batch: int) -> dict:
    """One untimed batched replay; returns the scheduler telemetry."""
    simulator = LifetimeSimulator(
        config=make_config(system, intra_counter_limit=64),
        source=trace,
        n_lines=N_LINES,
        endurance_mean=ENDURANCE_MEAN,
        seed=SIM_SEED,
    )
    result = simulator.run(
        max_writes=REPLAY_WRITES, batch=batch,
        check_interval=max(64, batch),
    )
    stats = result.stats
    return {
        "waves": stats.batch_waves,
        "wave_ops": stats.batch_wave_ops,
        "wave_width_max": stats.batch_wave_width_max,
        "wave_width_mean": round(stats.batch_wave_width_mean, 2),
        "collision_edges": stats.batch_collision_edges,
        "barrier_gap_move": stats.barrier_gap_move,
        "barrier_collision": stats.barrier_collision,
        "barrier_ineligible_row": stats.barrier_ineligible_row,
    }


# -- end-to-end ---------------------------------------------------------


def test_end_to_end_writes_per_sec(report):
    """Cycled-trace replay speed per system, best-of-REPS."""
    trace = _build_trace()
    measured: dict[str, float] = {}
    for system in EVALUATED_SYSTEMS:
        measured[system] = round(
            max(_replay_once(system, trace) for _ in range(REPS)), 1
        )

    before = RECORDED_REFERENCE["before"]["writes_per_sec"]
    lines = [f"{'system':10}{'writes/s':>12}{'pre-PR ref':>12}{'speedup':>9}"]
    comparable = REPLAY_WRITES == RECORDED_REFERENCE["replay_writes"]
    for system in EVALUATED_SYSTEMS:
        ratio = measured[system] / before[system] if comparable else float("nan")
        lines.append(
            f"{system:10}{measured[system]:12.1f}{before[system]:12.1f}"
            f"{ratio:9.2f}"
        )
    if not comparable:
        lines.append(
            f"(replay scaled to {REPLAY_WRITES} writes: speedups vs the "
            "full-scale reference are not meaningful)"
        )
    report("BENCH_hotpath_end_to_end", "\n".join(lines))
    _merge_json(
        "end_to_end",
        {
            "replay_writes": REPLAY_WRITES,
            "reps": REPS,
            "writes_per_sec": measured,
            "speedup_vs_reference": {
                s: round(measured[s] / before[s], 2) for s in EVALUATED_SYSTEMS
            }
            if comparable
            else None,
        },
    )

    # Non-blocking on timing; blocking only on "the replay actually ran".
    assert all(value > 0 for value in measured.values())


def test_batched_throughput(report):
    """Serial vs out-of-order scheduler on the line-parallel replay.

    BLOCKING: at ``BATCH_SIZE`` (128) the scheduler must sustain at
    least ``BATCH_SPEEDUP_GATE`` (4x) the serial throughput on the
    scenario it exists for (the CI bench-smoke hotpath gate).  Serial and
    batched reps are *interleaved* (a serial/batched pair per rep,
    best-of kept per side) so machine drift hits both sides of the
    ratio equally.  The per-system scheduler telemetry of one replay
    rides along into the JSON so wave shapes stay reviewable next to
    the numbers they explain.
    """
    trace = _build_parallel_trace()
    serial: dict[str, float] = {}
    batched: dict[str, float] = {}
    waves: dict[str, dict] = {}
    for system in EVALUATED_SYSTEMS:
        best_serial = 0.0
        best_batched = 0.0
        for _ in range(REPS):
            best_serial = max(best_serial, _replay_once(system, trace))
            best_batched = max(
                best_batched, _replay_once(system, trace, batch=BATCH_SIZE)
            )
        serial[system] = round(best_serial, 1)
        batched[system] = round(best_batched, 1)
        waves[system] = _replay_wave_stats(system, trace, BATCH_SIZE)

    lines = [
        f"{'system':10}{'batch=1 w/s':>14}"
        f"{f'batch={BATCH_SIZE} w/s':>16}{'speedup':>9}"
    ]
    for system in EVALUATED_SYSTEMS:
        lines.append(
            f"{system:10}{serial[system]:14.1f}{batched[system]:16.1f}"
            f"{batched[system] / serial[system]:9.2f}"
        )
    report("BENCH_hotpath_batched", "\n".join(lines))
    _merge_json(
        "batched",
        {
            "batch_size": BATCH_SIZE,
            "replay_writes": REPLAY_WRITES,
            "reps": REPS,
            "methodology": "interleaved serial/batched rep pairs, "
            "best-of per side",
            "scenario": (
                f"{TRACE_WORKLOAD} payload stream, bank-interleaved "
                f"addresses (round-robin over {N_LINES} lines)"
            ),
            "speedup_gate": BATCH_SPEEDUP_GATE,
            "serial_writes_per_sec": serial,
            "batched_writes_per_sec": batched,
            "speedup": {
                s: round(batched[s] / serial[s], 2)
                for s in EVALUATED_SYSTEMS
            },
            "scheduler": waves,
        },
    )

    for system in EVALUATED_SYSTEMS:
        speedup = batched[system] / serial[system]
        assert speedup >= BATCH_SPEEDUP_GATE, (
            f"{system}: batched replay ({batched[system]:.0f} w/s) is only "
            f"{speedup:.2f}x serial ({serial[system]:.0f} w/s); the "
            f"scheduler gate requires {BATCH_SPEEDUP_GATE}x at "
            f"batch={BATCH_SIZE}"
        )


def test_batch_size_sweep(report):
    """Batch-width scaling on the line-parallel replay (non-blocking).

    One batched best-of-REPS measurement per width in ``SWEEP_SIZES``;
    timing only, no assertion beyond "the replay ran" -- the blocking
    comparison lives in :func:`test_batched_throughput`.
    """
    trace = _build_parallel_trace()
    sweep: dict[str, dict[str, float]] = {
        system: {} for system in EVALUATED_SYSTEMS
    }
    for size in SWEEP_SIZES:
        for system in EVALUATED_SYSTEMS:
            sweep[system][str(size)] = round(
                max(
                    _replay_once(system, trace, batch=size)
                    for _ in range(REPS)
                ),
                1,
            )

    header = f"{'system':10}" + "".join(
        f"{f'batch={size}':>14}" for size in SWEEP_SIZES
    )
    lines = [header]
    for system in EVALUATED_SYSTEMS:
        lines.append(
            f"{system:10}" + "".join(
                f"{sweep[system][str(size)]:14.1f}" for size in SWEEP_SIZES
            )
        )
    report("BENCH_hotpath_batch_sweep", "\n".join(lines))
    _merge_json(
        "batch_sweep",
        {
            "sizes": list(SWEEP_SIZES),
            "replay_writes": REPLAY_WRITES,
            "reps": REPS,
            "writes_per_sec": sweep,
        },
    )

    assert all(
        value > 0 for per_system in sweep.values()
        for value in per_system.values()
    )


# -- microbenchmarks ----------------------------------------------------


def test_compression_cache_microbench(report):
    """Per-call cost of a cache miss vs a cache hit, plus counter checks."""
    trace = _build_trace()
    payloads = list(dict.fromkeys(write.data for write in trace))
    cache = CachingCompressor(BestOfCompressor(), capacity=len(payloads))

    start = time.perf_counter()
    cold = [cache.compress(payload) for payload in payloads]
    miss_ns = (time.perf_counter() - start) / len(payloads) * 1e9

    start = time.perf_counter()
    warm = [cache.compress(payload) for payload in payloads]
    hit_ns = (time.perf_counter() - start) / len(payloads) * 1e9

    # Blocking behaviour checks: every first lookup missed, every second
    # hit, and hits return the identical memoized result objects.
    assert cache.misses == len(payloads)
    assert cache.hits == len(payloads)
    assert all(a is b for a, b in zip(cold, warm))

    report(
        "BENCH_hotpath_cache",
        f"distinct payloads: {len(payloads)}\n"
        f"miss (BestOf compress + insert): {miss_ns:10.0f} ns/call\n"
        f"hit  (dict lookup):              {hit_ns:10.0f} ns/call\n"
        f"miss/hit ratio:                  {miss_ns / hit_ns:10.1f}x",
    )
    _merge_json(
        "cache_microbench",
        {
            "distinct_payloads": len(payloads),
            "miss_ns_per_call": round(miss_ns, 1),
            "hit_ns_per_call": round(hit_ns, 1),
        },
    )


def test_apply_write_microbench(report):
    """Per-call cost of apply_write on the three hot shapes."""
    rng = np.random.default_rng(11)
    n = 512
    endurance = np.full(n, 1e9)
    counts = np.zeros(n, dtype=np.int64)
    stored = rng.integers(0, 2, n, dtype=np.uint8)
    same = stored.copy()
    diff = stored.copy()
    diff[rng.choice(n, 60, replace=False)] ^= 1
    faulty = np.zeros(n, dtype=bool)
    faulty[rng.choice(n, 4, replace=False)] = True
    rounds = 2000

    def time_case(new_bits, **kwargs) -> float:
        base = stored.copy()
        start = time.perf_counter()
        for _ in range(rounds):
            apply_write(base, counts, endurance, new_bits, **kwargs)
        return (time.perf_counter() - start) / rounds * 1e9

    noop_ns = time_case(same, faulty=np.zeros(n, dtype=bool), has_faults=False)
    diff_ns = time_case(diff, faulty=np.zeros(n, dtype=bool), has_faults=False)
    faulted_ns = time_case(diff, faulty=faulty, has_faults=True)

    # Blocking behaviour check: the healthy no-op short-circuit reports
    # a clean outcome without touching the arrays.
    outcome = apply_write(
        stored.copy(), counts.copy(), endurance, same,
        faulty=np.zeros(n, dtype=bool), has_faults=False,
    )
    assert outcome.programmed_flips == 0
    assert outcome.error_positions.size == 0

    report(
        "BENCH_hotpath_apply_write",
        f"healthy no-op:      {noop_ns:8.0f} ns/call\n"
        f"healthy 60-bit diff:{diff_ns:8.0f} ns/call\n"
        f"faulty 60-bit diff: {faulted_ns:8.0f} ns/call",
    )
    _merge_json(
        "apply_write_microbench",
        {
            "healthy_noop_ns": round(noop_ns, 1),
            "healthy_diff_ns": round(diff_ns, 1),
            "faulty_diff_ns": round(faulted_ns, 1),
        },
    )


# -- blocking equivalence ----------------------------------------------


def _controller_digest(system: str, cache_lines: int) -> tuple[str, int, int]:
    """Replay a worn seeded trace; digest the WriteResult stream."""
    config = make_config(
        system, intra_counter_limit=64, compression_cache_lines=cache_lines
    )
    workload = SyntheticWorkload(get_profile("gcc"), n_lines=48, seed=3)
    controller = CompressedPCMController(
        config=config,
        n_lines=48,
        endurance_model=EnduranceModel(mean=40.0, cov=0.15),
        rng=np.random.default_rng(4),
    )
    digest = hashlib.sha256()
    for write in workload.iter_writes(3000):
        result = controller.write(write.line, write.data)
        row = [
            result.physical, int(result.compressed), result.size_bytes,
            result.window_start, result.flips, int(result.died),
            int(result.revived), int(result.lost), result.heuristic_step,
        ]
        digest.update(json.dumps(row).encode())
    stats = controller.stats
    return digest.hexdigest(), stats.total_flips, stats.lost_writes


@pytest.mark.parametrize("system", ["comp", "comp_w", "comp_wf"])
def test_cache_on_off_equivalence(system):
    """BLOCKING: the cache is a pure speed knob -- disabling it must not
    change a single externally observable write result, even on a worn
    memory where placement retries and deaths are in play."""
    cached = _controller_digest(system, cache_lines=1024)
    uncached = _controller_digest(system, cache_lines=0)
    assert cached == uncached
