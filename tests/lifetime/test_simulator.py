"""Unit tests for the lifetime simulator."""

import pytest

from repro.core import baseline, comp_wf
from repro.engine import SweepRunner
from repro.lifetime import (
    DEAD_CAPACITY_THRESHOLD,
    LifetimeSimulator,
    build_simulator,
    lifetime_months,
    normalized_against_baseline,
    normalized_lifetime,
    scaled_intra_counter_limit,
)
from repro.traces import SyntheticWorkload, Trace, WriteBack, get_profile


def tiny_simulator(system="baseline", workload="milc", **kwargs):
    defaults = dict(n_lines=32, endurance_mean=20.0, seed=0)
    defaults.update(kwargs)
    return build_simulator(system, workload, **defaults)


def test_runs_to_failure():
    result = tiny_simulator().run(max_writes=300_000)
    assert result.failed
    assert result.dead_fraction >= DEAD_CAPACITY_THRESHOLD
    assert result.writes_to_failure == result.writes_issued
    assert result.stats.total_flips > 0


def test_write_budget_respected():
    result = tiny_simulator().run(max_writes=500)
    assert not result.failed
    assert result.writes_issued == 500
    assert result.writes_to_failure is None


def test_deterministic_given_seed():
    a = tiny_simulator(seed=3).run(max_writes=300_000)
    b = tiny_simulator(seed=3).run(max_writes=300_000)
    assert a.writes_issued == b.writes_issued
    assert a.stats.total_flips == b.stats.total_flips


def test_trace_replay_source():
    generator = SyntheticWorkload(get_profile("milc"), n_lines=16, seed=1)
    trace = generator.generate_trace(200)
    simulator = LifetimeSimulator(
        config=baseline(),
        source=trace,
        n_lines=16,
        endurance_mean=15.0,
        seed=2,
    )
    result = simulator.run(max_writes=200_000)
    assert result.failed
    assert result.workload == "milc"


def test_trace_larger_than_memory_rejected():
    trace = Trace(workload="x", n_lines=64)
    trace.append(WriteBack(line=0, data=bytes(64)))
    with pytest.raises(ValueError, match="addresses 64 lines"):
        LifetimeSimulator(
            config=baseline(), source=trace, n_lines=16, endurance_mean=10
        ).run(max_writes=10)


def test_empty_trace_rejected():
    trace = Trace(workload="x", n_lines=4)
    simulator = LifetimeSimulator(
        config=baseline(), source=trace, n_lines=4, endurance_mean=10
    )
    with pytest.raises(ValueError, match="empty trace"):
        simulator.run(max_writes=10)


def test_bad_source_type_rejected():
    with pytest.raises(TypeError):
        LifetimeSimulator(
            config=baseline(), source=None, n_lines=4, endurance_mean=10
        )


def test_comparison_and_normalization():
    results = SweepRunner(
        systems=("baseline", "comp_wf"), n_lines=32,
        endurance_mean=20, max_writes=500_000,
    ).run_comparison("milc")
    norm = normalized_against_baseline(results)
    assert norm["baseline"] == pytest.approx(1.0)
    assert norm["comp_wf"] > 1.0  # compression helps milc


def test_normalization_requires_baseline():
    results = SweepRunner(
        systems=("comp_wf",), n_lines=16, endurance_mean=10,
        max_writes=200_000,
    ).run_comparison("milc")
    with pytest.raises(ValueError, match="baseline"):
        normalized_against_baseline(results)


def test_normalize_requires_finished_runs():
    finished = tiny_simulator().run(max_writes=300_000)
    unfinished = tiny_simulator().run(max_writes=10)
    with pytest.raises(ValueError):
        normalized_lifetime(unfinished, finished)


def test_lifetime_months_extrapolation():
    result = tiny_simulator().run(max_writes=300_000)
    months = lifetime_months(result, wpki=3.4)
    assert months > 0
    # Halving WPKI doubles the lifetime.
    assert lifetime_months(result, wpki=1.7) == pytest.approx(2 * months)
    with pytest.raises(ValueError):
        lifetime_months(result, wpki=0)


def test_scaled_intra_counter_limit():
    assert scaled_intra_counter_limit(10, lines_per_bank=4) == 16  # floor
    big = scaled_intra_counter_limit(10_000, lines_per_bank=64)
    assert big > 16
    # Linear in endurance.
    assert scaled_intra_counter_limit(20_000, lines_per_bank=64) == pytest.approx(
        2 * big, rel=0.01
    )
