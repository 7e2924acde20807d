"""``merge_results``: exact fleet aggregation of lifetime records."""

import dataclasses

import pytest

from repro.core.config import comp_wf
from repro.engine.context import ControllerStats
from repro.lifetime import LifetimeSimulator, merge_results
from repro.lifetime.results import LifetimeResult
from repro.traces import SyntheticWorkload, get_profile


def _run(lines, seed, writes=1500):
    simulator = LifetimeSimulator(
        comp_wf(n_banks=4),
        SyntheticWorkload(get_profile("mcf"), n_lines=lines, seed=seed),
        n_lines=lines, endurance_mean=24.0, seed=seed,
    )
    return simulator.run(max_writes=writes)


@pytest.fixture(scope="module")
def shard_results():
    return [_run(12, 1), _run(12, 2), _run(10, 3)]


def test_single_record_merges_to_itself(shard_results):
    assert merge_results([shard_results[0]]) is shard_results[0]


def test_merge_requires_compatible_records(shard_results):
    with pytest.raises(ValueError, match="zero results"):
        merge_results([])
    alien = dataclasses.replace(shard_results[1], system="baseline")
    with pytest.raises(ValueError, match="across systems"):
        merge_results([shard_results[0], alien])
    rescaled = dataclasses.replace(shard_results[1], endurance_mean=100.0)
    with pytest.raises(ValueError, match="endurance means"):
        merge_results([shard_results[0], rescaled])


def test_additive_fields_sum_exactly(shard_results):
    merged = merge_results(shard_results)
    for name in (
        "n_lines", "writes_issued", "capacity_lines",
        "dead_blocks", "death_fault_total", "death_fault_blocks",
    ):
        assert getattr(merged, name) == sum(
            getattr(r, name) for r in shard_results
        ), name


def test_counters_merge_through_the_stats_monoid(shard_results):
    merged = merge_results(shard_results)
    assert merged.stats == ControllerStats.merge_all(
        r.stats for r in shard_results
    )
    assert merged.stats.deaths == sum(r.stats.deaths for r in shard_results)


def test_ratio_fields_recompute_from_exact_numerators(shard_results):
    merged = merge_results(shard_results)
    assert merged.dead_fraction == merged.dead_blocks / merged.capacity_lines
    assert merged.compressed_write_fraction == (
        merged.stats.compressed_writes / merged.stats.stored_writes
    )
    if merged.death_fault_blocks:
        assert merged.avg_faults_per_dead_block == (
            merged.death_fault_total / merged.death_fault_blocks
        )


def test_merge_is_order_independent(shard_results):
    forward = merge_results(shard_results)
    backward = merge_results(list(reversed(shard_results)))
    assert forward == dataclasses.replace(backward, workload=forward.workload)


def test_mixed_workloads_collapse_to_fleet(shard_results):
    renamed = dataclasses.replace(shard_results[2], workload="gcc")
    merged = merge_results([shard_results[0], renamed])
    assert merged.workload == "fleet"
    uniform = merge_results(shard_results[:2])
    assert uniform.workload == "mcf"


def test_fleet_failure_requires_every_shard_failed(shard_results):
    failed = [dataclasses.replace(r, failed=True) for r in shard_results]
    half = failed[:1] + [dataclasses.replace(failed[1], failed=False)]
    assert merge_results(failed).failed
    assert not merge_results(half).failed


def test_zero_write_legacy_records_merge_without_dividing_by_zero():
    """An empty shard (0 lines, 0 writes, no capacity) merges as plain
    zeros: every ratio property guards its zero denominator."""
    def empty():
        return LifetimeResult(
            system="comp_wf", workload="mcf", n_lines=0,
            endurance_mean=24.0, writes_issued=0, failed=False,
            capacity_lines=0, dead_blocks=0, death_fault_total=0,
            death_fault_blocks=0, stats=ControllerStats(),
        )

    merged = merge_results([empty(), empty()])
    assert merged.dead_fraction == 0.0
    assert merged.compressed_write_fraction == 0.0
    assert merged.avg_faults_per_dead_block == 0.0
    assert merged.flips_per_write == 0.0


def test_simulator_populates_the_exact_merge_fields(shard_results):
    for result in shard_results:
        assert result.capacity_lines >= result.n_lines
        assert result.stats.stored_writes > 0
        assert result.dead_fraction == (
            result.dead_blocks / result.capacity_lines
        )
        assert result.compressed_write_fraction == (
            result.stats.compressed_writes / result.stats.stored_writes
        )
