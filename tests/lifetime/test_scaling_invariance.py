"""Scaled simulations must preserve *normalized* lifetimes.

DESIGN.md's substitution table claims normalized lifetime (Figure 10's
metric) is invariant to uniform endurance scaling, which is what makes
the scaled-down runs meaningful.  This test runs the same
(system, workload) pair at two endurance scales and checks that the
comp_wf/baseline ratio agrees within Monte Carlo noise.
"""

import pytest

from repro.engine import SweepRunner
from repro.lifetime import normalized_against_baseline


@pytest.mark.slow
def test_normalized_lifetime_stable_across_endurance_scales():
    ratios = []
    for endurance in (20.0, 60.0):
        results = SweepRunner(
            systems=("baseline", "comp_wf"),
            n_lines=64,
            endurance_mean=endurance,
            max_writes=2_000_000,
        ).run_comparison("milc", seed=1)
        assert all(result.failed for result in results.values())
        ratios.append(normalized_against_baseline(results)["comp_wf"])

    small, large = ratios
    assert small > 1.5 and large > 1.5  # compression clearly wins at both
    assert small == pytest.approx(large, rel=0.45)


def test_absolute_writes_scale_with_endurance():
    writes = []
    for endurance in (10.0, 40.0):
        results = SweepRunner(
            systems=("baseline",), n_lines=32,
            endurance_mean=endurance, max_writes=2_000_000,
        ).run_comparison("milc", seed=2)
        assert results["baseline"].failed
        writes.append(results["baseline"].writes_issued)
    # 4x the endurance -> roughly 4x the writes-to-failure.
    assert writes[1] / writes[0] == pytest.approx(4.0, rel=0.4)
