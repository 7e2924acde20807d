"""Tests for the parallel (profile x system) sweep runner.

The load-bearing property is determinism: a parallel sweep must
reproduce the serial ``run_system_comparison`` results bit-for-bit,
regardless of worker count or OS scheduling, with every option the
drivers take.  The runs here are deliberately tiny so the process-pool
tests stay fast.
"""

import dataclasses

import pytest

from repro.engine import SweepRunner, SweepTask, run_task
from repro.lifetime import run_system_comparison

SMALL = dict(n_lines=24, endurance_mean=12.0, max_writes=600_000)
SYSTEMS = ("baseline", "comp_wf")


def results_equal(a, b):
    return (
        a.writes_issued == b.writes_issued
        and a.failed == b.failed
        and a.dead_fraction == b.dead_fraction
        and a.stats.deaths == b.stats.deaths
        and a.stats.revivals == b.stats.revivals
        and a.stats.total_flips == b.stats.total_flips
    )


class TestTaskGrid:
    def test_grid_covers_the_cross_product_in_order(self):
        runner = SweepRunner(systems=SYSTEMS, **SMALL)
        tasks = runner.tasks(("milc", "gcc"), seed=5)
        assert [(t.workload, t.system) for t in tasks] == [
            ("milc", "baseline"), ("milc", "comp_wf"),
            ("gcc", "baseline"), ("gcc", "comp_wf"),
        ]
        assert all(t.seed == 5 for t in tasks)

    def test_tasks_are_pickleable_frozen_records(self):
        import pickle

        task = SweepRunner(systems=SYSTEMS, **SMALL).tasks(("milc",))[0]
        assert pickle.loads(pickle.dumps(task)) == task
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.seed = 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(workers=0)


class TestDeterminism:
    def test_parallel_sweep_matches_serial_comparison_bit_for_bit(self):
        serial = run_system_comparison("milc", systems=SYSTEMS, seed=3, **SMALL)
        runner = SweepRunner(systems=SYSTEMS, workers=4, **SMALL)
        parallel = runner.run_comparison("milc", seed=3)
        assert set(parallel) == set(serial)
        for system in SYSTEMS:
            assert results_equal(parallel[system], serial[system]), system

    def test_worker_count_does_not_change_results(self):
        runner1 = SweepRunner(systems=("comp_wf",), workers=1, **SMALL)
        runner2 = SweepRunner(systems=("comp_wf",), workers=2, **SMALL)
        grid1 = runner1.run(("milc", "gcc"), seed=1)
        grid2 = runner2.run(("milc", "gcc"), seed=1)
        for workload in ("milc", "gcc"):
            assert results_equal(
                grid1[workload]["comp_wf"], grid2[workload]["comp_wf"]
            ), workload

    def test_run_task_matches_in_process_simulation(self):
        task = SweepTask(
            system="comp_wf", workload="milc", n_lines=SMALL["n_lines"],
            endurance_mean=SMALL["endurance_mean"], endurance_cov=0.15,
            seed=9, max_writes=SMALL["max_writes"],
        )
        serial = run_system_comparison(
            "milc", systems=("comp_wf",), seed=9, **SMALL
        )["comp_wf"]
        assert results_equal(run_task(task), serial)


class TestWorkersPlumbing:
    def test_run_system_comparison_workers_flag_delegates(self):
        serial = run_system_comparison("gcc", systems=SYSTEMS, seed=2, **SMALL)
        parallel = run_system_comparison(
            "gcc", systems=SYSTEMS, seed=2, workers=2, **SMALL
        )
        for system in SYSTEMS:
            assert results_equal(parallel[system], serial[system]), system

    def test_config_overrides_reach_the_workers(self):
        runner = SweepRunner(
            systems=("comp_wf",), workers=2,
            config_overrides={"threshold1": 4}, **SMALL
        )
        plain = SweepRunner(systems=("comp_wf",), workers=2, **SMALL)
        changed = runner.run_comparison("milc", seed=3)["comp_wf"]
        default = plain.run_comparison("milc", seed=3)["comp_wf"]
        assert not results_equal(changed, default)


class TestOneDriver:
    """Every option of the study drivers works at every worker count."""

    def test_workers_match_serial_with_batch(self):
        serial = run_system_comparison(
            "milc", systems=SYSTEMS, seed=3, batch=8, **SMALL
        )
        parallel = run_system_comparison(
            "milc", systems=SYSTEMS, seed=3, batch=8, workers=2, **SMALL
        )
        assert parallel == serial
        assert serial["comp_wf"].stats.batch_waves > 0
        unbatched = run_system_comparison("milc", systems=SYSTEMS, seed=3, **SMALL)
        for system in SYSTEMS:
            assert results_equal(parallel[system], unbatched[system]), system

    def test_progress_lines_appear_with_workers(self, capfd):
        run_system_comparison(
            "milc", systems=SYSTEMS, seed=3, workers=2, progress=True, **SMALL
        )
        err = capfd.readouterr().err
        for system in SYSTEMS:
            assert f"[milc/{system}] run started (fresh)" in err
            assert f"[milc/{system}] done after" in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_names_raise_before_any_run(self, workers, monkeypatch):
        from repro.lifetime import LifetimeSimulator

        def no_runs(*args, **kwargs):
            raise AssertionError("a lifetime run started")

        monkeypatch.setattr(LifetimeSimulator, "run", no_runs)
        with pytest.raises(ValueError, match="no_such_system"):
            run_system_comparison(
                "milc", systems=("baseline", "no_such_system"),
                workers=workers, **SMALL,
            )
        with pytest.raises(ValueError, match="no_such_workload"):
            run_system_comparison(
                "no_such_workload", systems=SYSTEMS, workers=workers, **SMALL
            )
