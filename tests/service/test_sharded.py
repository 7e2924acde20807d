"""The in-process sharded fleet: bit-identity up and down the chain.

The sharding contract has two directions, both asserted here against
real write streams:

* down -- a 1-shard :class:`ShardedController` IS the monolithic
  controller: it replays the frozen golden trace to the same SHA-256
  ``WriteResult`` digest the pre-refactor engine produced;
* across -- a K-shard fleet equals K *independent* single-space
  controllers each replaying its routed sub-stream, because sharding is
  pure routing plus address translation.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import EVALUATED_SYSTEMS, CompressedPCMController
from repro.core.config import comp_wf
from repro.engine import resolve_config
from repro.pcm import EnduranceModel
from repro.service import ShardedController, make_stream
from repro.tier import HybridController
from repro.traces import SyntheticWorkload, get_profile

from ..golden.generate_golden import result_row
from ..golden.test_golden_trace import FIXTURE


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_one_shard_fleet_reproduces_golden_digests(golden, system):
    """The 1-shard service is bit-identical to the monolithic engine."""
    trace = golden["trace"]
    expected = golden["systems"][system]
    fleet = ShardedController(
        resolve_config(system, intra_counter_limit=64),
        trace["n_lines"], shards=1,
        endurance_mean=trace["endurance_mean"],
        endurance_cov=trace["endurance_cov"],
        seed=trace["seed"] + 1,
    )
    workload = SyntheticWorkload(
        get_profile(trace["workload"]), n_lines=trace["n_lines"],
        seed=trace["seed"],
    )
    digest = hashlib.sha256()
    for write in workload.iter_writes(trace["writes"]):
        row = result_row(fleet.write(write.line, write.data))
        digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == expected["write_results_sha256"]
    assert fleet.dead_fraction == expected["dead_fraction"]
    stats = fleet.stats
    for counter, value in expected["stats"].items():
        if counter == "heuristic_steps":
            observed = {str(k): v for k, v in stats.heuristic_steps.items()}
        else:
            observed = getattr(stats, counter)
        assert observed == value, counter


def _request_stream(lines, count, seed):
    stream = make_stream("memcached", lines, seed)
    return [(r.line, r.data) for r in stream.iter_requests(count)]


def test_k_shards_equal_k_independent_runs():
    """Each shard's results are those of an independent controller."""
    lines, shards, seed = 64, 4, 9
    stream = _request_stream(lines, 1200, seed)

    fleet = ShardedController(
        comp_wf(n_banks=4), lines, shards=shards,
        endurance_mean=48.0, endurance_cov=0.2, seed=seed,
    )
    fleet_results = [fleet.write(line, data) for line, data in stream]

    independent = [
        ShardedController(
            comp_wf(n_banks=4), fleet.shard_map.lines_of(shard), shards=1,
            endurance_mean=48.0, endurance_cov=0.2,
            seed=shard_seed,
        )
        for shard, shard_seed in enumerate(fleet.shard_map.shard_seeds(seed))
    ]
    # Replay each routed sub-stream and compare the full WriteResult
    # sequences, interleaved back into global stream order.
    solo_results = [None] * len(stream)
    buckets = fleet.shard_map.partition(stream)
    positions = [[] for _ in range(shards)]
    for position, (line, _) in enumerate(stream):
        positions[fleet.shard_map.shard_of(line)].append(position)
    for shard, (bucket, slots) in enumerate(zip(buckets, positions)):
        for (local, data), slot in zip(bucket, slots):
            solo_results[slot] = independent[shard].write(local, data)

    assert fleet_results == solo_results
    assert fleet.shard_stats() == [c.stats for c in independent]
    for line in range(lines):
        shard, local = fleet.shard_map.to_local(line)
        assert fleet.read(line) == independent[shard].read(local)


def test_tiered_uneven_shards_equal_independent_hybrid_controllers():
    """Each tiered shard is an independent tiered controller of its size.

    Uneven shards (34/33/33 lines) worn far enough to kill and revive
    lines: the fleet's tiers see only local line numbers, exactly as a
    stand-alone :class:`HybridController` replaying its sub-stream.
    """
    lines, shards, seed, tier = 100, 3, 4, 8
    config = comp_wf(tier_lines=tier)
    stream = _request_stream(lines, 6000, seed)
    fleet = ShardedController(
        config, lines, shards=shards,
        endurance_mean=6.0, endurance_cov=0.15, seed=seed,
    )
    shard_map = fleet.shard_map
    independent = [
        HybridController(
            CompressedPCMController(
                config, shard_map.lines_of(shard),
                EnduranceModel(mean=6.0, cov=0.15),
                np.random.default_rng(shard_seed),
            ),
        )
        for shard, shard_seed in enumerate(shard_map.shard_seeds(seed))
    ]
    for start in range(0, len(stream), 64):
        batch = stream[start:start + 64]
        fleet.write_batch(batch)
        # The fleet hands each shard its sub-batch of every batch.
        for controller, bucket in zip(
            independent, shard_map.partition(batch)
        ):
            if bucket:
                controller.write_batch(bucket)

    assert [shard_map.lines_of(s) for s in range(shards)] == [34, 33, 33]
    merged = fleet.stats
    assert merged.deaths > 0 and merged.revivals > 0
    assert fleet.shard_stats() == [c.stats for c in independent]
    for mine, theirs in zip(fleet.controllers, independent):
        assert np.array_equal(mine.dead, theirs.dead)
    for line in range(lines):
        shard, local = shard_map.to_local(line)
        assert fleet.read(line) == independent[shard].read(local)


def test_serial_and_batched_routing_agree():
    lines, seed = 48, 21
    stream = _request_stream(lines, 800, seed)
    serial = ShardedController(
        comp_wf(n_banks=4), lines, shards=3,
        endurance_mean=40.0, endurance_cov=0.2, seed=seed,
    )
    batched = ShardedController(
        comp_wf(n_banks=4), lines, shards=3,
        endurance_mean=40.0, endurance_cov=0.2, seed=seed,
    )
    serial_results = [serial.write(line, data) for line, data in stream]
    batched_results = []
    for start in range(0, len(stream), 64):
        batched_results.extend(batched.write_batch(stream[start:start + 64]))
    assert serial_results == batched_results
    # The batched fleet carries wave/barrier telemetry a serial replay
    # cannot have; every behavioural counter must agree exactly.
    assert serial.stats == batched.stats.without_scheduler_telemetry()
    assert all(serial.read(line) == batched.read(line) for line in range(lines))


def test_write_batch_accepts_a_generator():
    fleet = ShardedController(
        comp_wf(n_banks=4), 16, shards=2, endurance_mean=32.0, seed=1,
    )
    stream = _request_stream(16, 40, 1)
    results = fleet.write_batch(pair for pair in stream)
    assert len(results) == 40
    assert all(result is not None for result in results)


def test_routing_rejects_out_of_space_lines():
    fleet = ShardedController(comp_wf(n_banks=4), 16, shards=2)
    with pytest.raises(IndexError):
        fleet.write(16, bytes(64))
    with pytest.raises(IndexError):
        fleet.read(-1)
