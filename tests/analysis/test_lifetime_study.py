"""Unit tests for the lifetime-study wrappers."""

import pytest

from repro.analysis import (
    geometric_mean_normalized,
    high_variation_study,
    run_full_study,
    run_workload_study,
)


@pytest.fixture(scope="module")
def tiny_study():
    return run_workload_study(
        "milc", systems=("baseline", "comp_wf"),
        n_lines=32, endurance_mean=15, seed=0, max_writes=600_000,
    )


def test_study_normalizes_against_baseline(tiny_study):
    assert tiny_study.normalized["baseline"] == pytest.approx(1.0)
    assert tiny_study.normalized["comp_wf"] > 1.0


def test_study_months(tiny_study):
    base = tiny_study.months("baseline")
    wf = tiny_study.months("comp_wf")
    assert base > 0
    assert wf / base == pytest.approx(tiny_study.normalized["comp_wf"], rel=1e-6)


def test_study_tolerated_faults(tiny_study):
    assert tiny_study.tolerated_faults("comp_wf") > tiny_study.tolerated_faults(
        "baseline"
    ) * 0.9


def test_unfinished_runs_raise():
    with pytest.raises(RuntimeError, match="failure criterion"):
        run_workload_study(
            "milc", systems=("baseline",), n_lines=32,
            endurance_mean=1000, seed=0, max_writes=200,
        )


@pytest.mark.slow
def test_full_study_and_mean():
    studies = run_full_study(
        workloads=("milc", "zeusmp"), systems=("baseline", "comp_wf"),
        n_lines=32, endurance_mean=12, seed=0, max_writes=800_000,
    )
    assert set(studies) == {"milc", "zeusmp"}
    mean = geometric_mean_normalized(studies, "comp_wf")
    assert mean > 1.0


def test_high_variation_study_uses_cov_025():
    studies = high_variation_study(
        workloads=("milc",), n_lines=32, endurance_mean=12, seed=0,
        max_writes=800_000,
    )
    assert studies["milc"].normalized["comp_wf"] > 0.8


def test_full_study_workers_match_serial_with_tier():
    settings = dict(
        workloads=("milc", "gcc"), systems=("baseline", "comp_wf"),
        n_lines=16, endurance_mean=12, seed=0, max_writes=400_000,
        config_overrides={"tier_lines": 4},
    )
    serial = run_full_study(**settings)
    parallel = run_full_study(workers=2, **settings)
    assert set(parallel) == set(serial) == {"milc", "gcc"}
    for workload, study in serial.items():
        assert parallel[workload].results == study.results, workload
        assert study.results["comp_wf"].stats.tier_hits > 0


def test_full_study_is_the_plain_runner_grid():
    """``run_full_study`` adds only its failure check and
    ``WorkloadStudy``: its results are the runner grid's."""
    from repro.engine import SweepRunner
    from repro.pcm import PAPER_ENDURANCE_COV

    settings = dict(
        systems=("baseline", "comp_wf"), n_lines=16, endurance_mean=12,
        max_writes=400_000,
    )
    studies = run_full_study(workloads=("milc", "gcc"), seed=1, **settings)
    grid = SweepRunner(endurance_cov=PAPER_ENDURANCE_COV, **settings).run(
        ("milc", "gcc"), seed=1
    )
    assert {w: study.results for w, study in studies.items()} == grid
