"""Tests for the parallel (profile x system) sweep runner.

The load-bearing property is determinism: a parallel sweep must
reproduce the serial (``workers=1``) results bit-for-bit, regardless
of worker count or OS scheduling, with every option a grid takes.  The
runs here are deliberately tiny so the process-pool tests stay fast.
"""

import dataclasses

import pytest

from repro.engine import SweepRunner, SweepTask, run_task

SMALL = dict(n_lines=24, endurance_mean=12.0, max_writes=600_000)
SYSTEMS = ("baseline", "comp_wf")


def comparison(workload, seed, batch=1, progress=False, **settings):
    """One workload across a grid's systems (``SYSTEMS`` unless given)."""
    settings.setdefault("systems", SYSTEMS)
    runner = SweepRunner(**SMALL, **settings)
    return runner.run_comparison(workload, seed, batch, progress)


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
        assert all(t.runner is runner for t in tasks)

    def test_tasks_hold_only_the_cell_and_the_call_options(self):
        """Grid settings live on the runner; a task copies none of them."""
        fields = {f.name for f in dataclasses.fields(SweepTask)}
        assert fields == {
            "system", "workload", "runner", "seed", "batch", "progress"
        }

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
        serial = comparison("milc", seed=3)
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
        task = SweepTask("comp_wf", "milc", SweepRunner(**SMALL), seed=9)
        serial = comparison("milc", seed=9, systems=("comp_wf",))["comp_wf"]
        assert results_equal(run_task(task), serial)


class TestWorkersPlumbing:
    def test_default_workers_run_in_process_and_match_the_pool(
        self, monkeypatch
    ):
        from repro.engine import sweep

        assert SweepRunner().workers == 1
        with monkeypatch.context() as patch:
            patch.setattr(sweep, "ProcessPoolExecutor", None)  # no pool
            serial = comparison("gcc", seed=2)
        parallel = comparison("gcc", seed=2, workers=2)
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
        serial = comparison("milc", seed=3, batch=8)
        parallel = comparison("milc", seed=3, batch=8, workers=2)
        assert parallel == serial
        assert serial["comp_wf"].stats.batch_waves > 0
        unbatched = comparison("milc", seed=3)
        for system in SYSTEMS:
            assert results_equal(parallel[system], unbatched[system]), system

    def test_progress_lines_appear_with_workers(self, capfd):
        comparison("milc", seed=3, progress=True, workers=2)
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
            comparison(
                "milc", seed=0, systems=("baseline", "no_such_system"),
                workers=workers,
            )
        with pytest.raises(ValueError, match="no_such_workload"):
            comparison("no_such_workload", seed=0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_drivers_reject_unknown_names_before_any_run(
        self, workers, monkeypatch
    ):
        """The runner's name check guards every driver: no task runs
        and no pool starts."""
        from repro.analysis import run_full_study
        from repro.energy import run_energy_sweep
        from repro.engine import sweep

        def no_runs(*args, **kwargs):
            raise AssertionError("a lifetime run started")

        monkeypatch.setattr(sweep, "run_task", no_runs)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_runs)
        for driver in (run_full_study, run_energy_sweep):
            with pytest.raises(ValueError, match="no_such_system"):
                driver(
                    workloads=("milc",), systems=("baseline", "no_such_system"),
                    workers=workers, **SMALL,
                )
            with pytest.raises(ValueError, match="no_such_workload"):
                driver(
                    workloads=("milc", "no_such_workload"), systems=SYSTEMS,
                    workers=workers, **SMALL,
                )


class _Captured(Exception):
    pass


def built_runner(monkeypatch, driver, **kwargs) -> SweepRunner:
    """The runner a study driver builds; its grid is never run."""
    built = []

    def run(self, *args, **kw):
        built.append(self)
        raise _Captured

    monkeypatch.setattr(SweepRunner, "run", run)
    with pytest.raises(_Captured):
        driver(**kwargs)
    [runner] = built
    return runner


class TestStudyDrivers:
    """The study drivers declare no grid setting of their own: each
    builds one runner from its scale defaults plus the caller's
    settings."""

    @staticmethod
    def scale(runner):
        return (
            runner.n_lines, runner.endurance_mean, runner.endurance_cov,
            runner.max_writes, runner.workers,
        )

    def test_full_study_defaults(self, monkeypatch):
        from repro.analysis import run_full_study
        from repro.core import EVALUATED_SYSTEMS
        from repro.pcm import PAPER_ENDURANCE_COV

        runner = built_runner(monkeypatch, run_full_study)
        assert self.scale(runner) == (96, 60.0, PAPER_ENDURANCE_COV, 4_000_000, 1)
        assert runner.systems == EVALUATED_SYSTEMS
        assert runner == SweepRunner(
            n_lines=96, endurance_mean=60.0,
            endurance_cov=PAPER_ENDURANCE_COV, max_writes=4_000_000,
        )

    def test_energy_sweep_defaults(self, monkeypatch):
        from repro.core import EVALUATED_SYSTEMS
        from repro.energy import run_energy_sweep
        from repro.engine import system_names

        runner = built_runner(monkeypatch, run_energy_sweep)
        assert self.scale(runner) == (128, 60.0, 0.15, 2_000_000, 1)
        assert runner == SweepRunner(
            systems=EVALUATED_SYSTEMS + system_names("energy"),
            n_lines=128, endurance_mean=60.0, max_writes=2_000_000,
        )

    def test_settings_reach_the_runner(self, monkeypatch):
        from repro.analysis import high_variation_study, run_full_study
        from repro.energy import run_energy_sweep

        settings = dict(
            n_lines=32, endurance_mean=12.0, max_writes=1_000, workers=2,
            config_overrides={"tier_lines": 4}, checkpoint_dir="runs",
            checkpoint_interval=50, resume=True, retries=1,
        )
        for driver in (run_full_study, run_energy_sweep):
            runner = built_runner(
                monkeypatch, driver, systems=SYSTEMS, **settings
            )
            assert runner == SweepRunner(systems=SYSTEMS, **settings)
        runner = built_runner(monkeypatch, high_variation_study, **settings)
        assert runner == SweepRunner(
            systems=SYSTEMS, endurance_cov=0.25, **settings
        )
