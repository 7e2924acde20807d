"""Hybrid DRAM-tier benchmark: PCM write traffic and lifetime (CARAM).

Quantifies what the content-aware DRAM front tier (:mod:`repro.tier`)
buys on datacenter-shaped request streams: PCM writes/sec through the
sharded fleet and -- the number the tier exists for -- the *write
traffic reduction*, the fraction of demand writes that never reach the
PCM medium, at two DRAM capacities on the ``memcached`` and ``nginx``
service workloads.  A Figure-10-style companion records the lifetime
effect: ``comp`` and ``comp_wf`` with and without the tier at the same
two capacities.  Results land in ``benchmarks/results/BENCH_caram.json``
(at the default scale only).

Timing numbers are informational (shared runners drift); the blocking
assertions are behavioural:

* capacity 0 is bit-identical to a bare fleet (stats equality);
* the tier's accounting balances before any flush:
  ``pcm_demand_writes + absorbed - evictions == requests``;
* the post-flush write-traffic reduction is never negative, and the
  deeper tier never reduces *less* than the shallower one.

Scale knobs for smoke runs:

=========================== ======== ================================
variable                    default  meaning
=========================== ======== ================================
``REPRO_CARAM_REQUESTS``        4000 requests per workload replay
``REPRO_CARAM_MAX_WRITES``    400000 lifetime-run write budget
=========================== ======== ================================
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import comp_wf
from repro.engine import SweepRunner
from repro.engine.registry import resolve_config
from repro.service import ShardedController, make_stream

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_caram.json"

# -- pinned scenario (comparability anchor) -----------------------------
LINES = 96
SHARDS = 2
BATCH = 32
SEED = 11
ENDURANCE_MEAN = 2000.0  # wear-free steady state: traffic, not death
TIER_CAPACITIES = (8, 24)  # DRAM lines per shard
WORKLOADS = ("memcached", "nginx")

# -- lifetime companion (Figure-10-style, scaled) -----------------------
LIFETIME_WORKLOAD = "mcf"
LIFETIME_SYSTEMS = ("comp", "comp_wf")
LIFETIME_LINES = 48
LIFETIME_ENDURANCE = 30.0

REQUESTS = int(os.environ.get("REPRO_CARAM_REQUESTS", 4000))
MAX_WRITES = int(os.environ.get("REPRO_CARAM_MAX_WRITES", 400_000))


def _stream(workload):
    stream = make_stream(workload, LINES, SEED)
    return [(r.line, r.data) for r in stream.iter_requests(REQUESTS)]


def _fleet(tier_lines):
    return ShardedController(
        comp_wf(tier_lines=tier_lines), LINES, shards=SHARDS,
        endurance_mean=ENDURANCE_MEAN, seed=SEED,
    )


def _drive(fleet, stream) -> float:
    started = time.perf_counter()
    for start in range(0, len(stream), BATCH):
        fleet.write_batch(stream[start:start + BATCH])
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def report(default_scale):
    payload = {
        "scenario": {
            "lines": LINES,
            "shards": SHARDS,
            "requests": REQUESTS,
            "batch": BATCH,
            "seed": SEED,
            "endurance_mean": ENDURANCE_MEAN,
            "system": "comp_wf",
            "tier_capacities_per_shard": list(TIER_CAPACITIES),
        },
        "cpu_count": os.cpu_count(),
        "note": (
            "write_traffic_reduction = 1 - hybrid PCM writes / bare PCM "
            "writes, measured after a full tier flush so every request "
            "is durably on the medium in both columns. writes/sec is "
            "informational (single-run, drifts with the host); recorded "
            "on a small container, rerun at scale for stable timing."
        ),
        "workloads": {},
        "lifetime": {
            "scenario": {
                "workload": LIFETIME_WORKLOAD,
                "systems": list(LIFETIME_SYSTEMS),
                "n_lines": LIFETIME_LINES,
                "endurance_mean": LIFETIME_ENDURANCE,
                "max_writes": MAX_WRITES,
                "tier_capacities": [0, *TIER_CAPACITIES],
            },
            "writes_to_failure": {},
        },
    }
    yield payload
    # A partial run (``-k``, or a failed test) would drop tables from
    # the recorded results, so the file is written only when every
    # table is filled, and a smoke-scale run records nothing.
    if default_scale and _complete(payload):
        RESULTS_DIR.mkdir(exist_ok=True)
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _complete(payload) -> bool:
    """Whether every workload and lifetime cell has a recorded result."""
    lifetime = payload["lifetime"]["writes_to_failure"]
    return set(payload["workloads"]) == set(WORKLOADS) and all(
        len(lifetime.get(system, ())) == 1 + len(TIER_CAPACITIES)
        for system in LIFETIME_SYSTEMS
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_write_traffic_reduction(report, workload):
    stream = _stream(workload)

    bare = _fleet(0)
    bare_elapsed = _drive(bare, stream)
    bare_pcm_writes = bare.stats.demand_writes
    assert bare_pcm_writes == len(stream)

    entry = {
        "bare": {
            "writes_per_sec": round(len(stream) / bare_elapsed, 1),
            "pcm_writes": bare_pcm_writes,
        },
        "tiers": {},
    }
    previous_reduction = -1.0
    for capacity in TIER_CAPACITIES:
        hybrid = _fleet(capacity)
        elapsed = _drive(hybrid, stream)
        stats = hybrid.stats
        # Blocking: demand-stream conservation before any flush.
        assert (
            stats.demand_writes
            + stats.tier_pcm_writes_avoided
            - stats.tier_evictions
            == len(stream)
        )
        flushed = hybrid.flush_tiers()
        pcm_writes = hybrid.stats.demand_writes  # now includes the flush
        reduction = 1.0 - pcm_writes / bare_pcm_writes
        # Blocking: the tier must never *add* PCM traffic, and capacity
        # must be monotone -- more DRAM, no less coalescing.
        assert reduction >= 0.0
        assert reduction >= previous_reduction
        previous_reduction = reduction
        entry["tiers"][str(capacity)] = {
            "writes_per_sec": round(len(stream) / elapsed, 1),
            "pcm_writes": pcm_writes,
            "flushed_on_drain": flushed,
            "coalesced_writes": stats.tier_coalesced_writes,
            "dedup_hits": stats.tier_dedup_hits,
            "write_traffic_reduction": round(reduction, 4),
        }
    report["workloads"][workload] = entry


def test_capacity_zero_is_bit_identical_to_bare(report):
    """The safety rail the whole subsystem hangs on, at fleet scale:
    comp_wf_hybrid (comp_wf plus a 16-line tier) overridden to 0 lines
    runs exactly the bare comp_wf fleet."""
    stream = _stream("memcached")
    bare, zero = _fleet(0), ShardedController(
        resolve_config("comp_wf_hybrid", tier_lines=0), LINES,
        shards=SHARDS, endurance_mean=ENDURANCE_MEAN, seed=SEED,
    )
    _drive(bare, stream)
    _drive(zero, stream)
    assert bare.stats == zero.stats
    for line in range(LINES):
        assert bare.read(line) == zero.read(line)


def test_lifetime_with_and_without_tier(report):
    """Figure-10-style companion: writes-to-failure for comp/comp_wf
    bare and behind the tier at both capacities."""
    for capacity in (0, *TIER_CAPACITIES):
        results = SweepRunner(
            systems=LIFETIME_SYSTEMS, n_lines=LIFETIME_LINES,
            endurance_mean=LIFETIME_ENDURANCE, max_writes=MAX_WRITES,
            config_overrides={"tier_lines": capacity},
        ).run_comparison(LIFETIME_WORKLOAD, seed=3)
        for system, result in results.items():
            recorded = report["lifetime"]["writes_to_failure"].setdefault(
                system, {}
            )
            if capacity:
                # The tier absorbs demand writes, so the hybrid always
                # survives at least as many as the bare system.
                assert result.writes_issued >= recorded["0"]["writes_issued"]
            recorded[str(capacity)] = {
                "writes_issued": result.writes_issued,
                "failed": result.failed,
                "pcm_stored_writes": result.stats.stored_writes,
            }
