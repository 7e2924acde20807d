"""Fleet throughput benchmark: writes/sec vs shard count.

Measures the memory service's scaling shape on the line-parallel
scenario (round-robin addresses drained through the batched write
engine -- the same drain order ``test_perf_hotpath.py`` pins for the
single-space engine): fleet writes/sec at 1, 2, 4, and 8 shards for
both front ends, the in-process :class:`ShardedController` and the
multi-process :class:`MemoryService`.  Results land in
``benchmarks/results/BENCH_service.json`` (at the default scale only).

Timing numbers are informational (shared runners drift by tens of
percent) -- the *blocking* assertion is behavioural: at every shard
count, both front ends must finish the identical stream with identical
fleet statistics, and the fleet totals must be invariant in the shard
count (sharding is routing, not simulation).

Scale knobs for smoke runs:

========================== ======= ==================================
variable                   default meaning
========================== ======= ==================================
``REPRO_SERVICE_REQUESTS``    4000 requests per measured replay
``REPRO_SERVICE_REPS``           3 in-process reps (best-of is kept)
========================== ======= ==================================

Methodology note: worker processes only pay off with real parallelism;
on a single-core container (like the one the recorded numbers come
from) the multi-process service adds IPC overhead and *loses* to the
in-process fleet at every shard count.  The recorded JSON says so
explicitly (``cpu_count``) rather than pretending a scaling curve.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import comp_wf
from repro.service import MemoryService, ShardedController
from repro.traces import SyntheticWorkload, get_profile

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_service.json"

# -- pinned scenario (comparability anchor) -----------------------------
LINES = 128
SHARD_COUNTS = (1, 2, 4, 8)
BATCH = 32
SEED = 7
ENDURANCE_MEAN = 1000.0  # wear-free steady state: the hot path
VALUE_WORKLOAD = "gcc"

REQUESTS = int(os.environ.get("REPRO_SERVICE_REQUESTS", 4000))
REPS = int(os.environ.get("REPRO_SERVICE_REPS", 3))


def _line_parallel_stream():
    """Round-robin addresses with the pinned payload stream.

    The drain order a controller sees when write-backs spread across
    banks -- every size-``BATCH`` window touches ``BATCH`` distinct
    lines, so per-shard sub-batches stay line-parallel at every shard
    count.
    """
    values = SyntheticWorkload(get_profile(VALUE_WORKLOAD), LINES, seed=SEED)
    return [
        (line % LINES, values.write_to(line % LINES).data)
        for line in range(REQUESTS)
    ]


def _fleet(shards):
    return ShardedController(
        comp_wf(), LINES, shards=shards,
        endurance_mean=ENDURANCE_MEAN, seed=SEED,
    )


def _drive(front_end, stream) -> float:
    submit = getattr(front_end, "submit", None) or front_end.write_batch
    started = time.perf_counter()
    for start in range(0, len(stream), BATCH):
        submit(stream[start:start + BATCH])
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def report(default_scale):
    payload = {
        "scenario": {
            "lines": LINES,
            "requests": REQUESTS,
            "batch": BATCH,
            "seed": SEED,
            "endurance_mean": ENDURANCE_MEAN,
            "value_workload": VALUE_WORKLOAD,
            "address_pattern": "round-robin (line-parallel)",
            "system": "comp_wf",
            "reps": REPS,
        },
        "cpu_count": os.cpu_count(),
        "note": (
            "writes/sec, best of REPS replays. Recorded on a 1-core "
            "container: worker processes cannot run in parallel here, so "
            "the multi-process service pays IPC overhead with no "
            "parallel speedup; treat the in-process column as the "
            "sharding-overhead baseline and rerun on a multi-core host "
            "for a real scaling curve."
        ),
        "in_process": {},
        "service": {},
    }
    yield payload
    if default_scale:  # a smoke-scale run records nothing
        RESULTS_DIR.mkdir(exist_ok=True)
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_fleet_writes_per_sec(report, shards):
    stream = _line_parallel_stream()

    # Drive the reference with the same BATCH chunking the measured
    # front ends see: the scheduler's wave telemetry depends on segment
    # boundaries, and the bit-equality gate below includes it.
    reference = _fleet(shards)
    _drive(reference, stream)

    best_inproc = min(_drive(_fleet(shards), stream) for _ in range(REPS))
    report["in_process"][str(shards)] = round(len(stream) / best_inproc, 1)

    best_service = None
    for _ in range(REPS):
        with MemoryService(
            comp_wf(), LINES, shards=shards,
            endurance_mean=ENDURANCE_MEAN, seed=SEED,
        ) as service:
            elapsed = _drive(service, stream)
            result = service.stop()
        # Behavioural gate: the multi-process fleet must equal the
        # in-process reference bit for bit, every rep, every width.
        assert result.stats == reference.stats
        assert result.requests_routed == len(stream)
        assert result.recoveries == 0
        best_service = elapsed if best_service is None else min(best_service, elapsed)
    report["service"][str(shards)] = round(len(stream) / best_service, 1)


def test_fleet_totals_are_shard_invariant(report):
    """Fleet demand/stored totals cannot depend on the shard count."""
    stream = _line_parallel_stream()
    totals = set()
    for shards in SHARD_COUNTS:
        fleet = _fleet(shards)
        fleet.write_batch(stream)
        totals.add((fleet.stats.demand_writes, fleet.stats.lost_writes))
    assert totals == {(len(stream), 0)}
