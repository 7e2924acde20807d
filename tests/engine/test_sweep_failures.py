"""Fault tolerance of the sweep runner.

The load-bearing property: one poisoned (workload, system) task must
never discard its siblings' results -- the old ``pool.map`` rethrow
aborted the whole grid.  A failing task comes back as a structured
:class:`~repro.engine.TaskFailure` (spec + traceback + attempt count),
the rest of the grid completes, and the run-manifest records both.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.engine import (
    SweepError,
    SweepRunner,
    SweepTask,
    TaskFailure,
    run_task,
)
from repro.engine.sweep import quarantine_attempt
from repro.lifetime import latest_checkpoint, systems
from repro.lifetime.checkpoint import list_checkpoints

SMALL = dict(n_lines=24, endurance_mean=12.0, max_writes=600_000)
#: A registered system whose runs fail inside the task (see
#: ``poisoned_builder``): the runner's up-front name check passes it,
#: and the worker raises inside ``build_simulator`` exactly like a bad
#: config would mid-grid.
POISON = "comp_wf_safer32"


@pytest.fixture(autouse=True)
def poisoned_builder(monkeypatch):
    """Patch ``build_simulator`` to raise for ``POISON``.

    Patched in this process before any pool starts, so forked pool
    workers inherit it too.
    """
    real = systems.build_simulator

    def build_simulator(system, workload, **kwargs):
        if system == POISON:
            raise ValueError(f"cannot build {system!r}")
        return real(system, workload, **kwargs)

    monkeypatch.setattr(systems, "build_simulator", build_simulator)


def poisoned_runner(**kwargs):
    return SweepRunner(systems=("baseline", POISON, "comp_wf"), **SMALL, **kwargs)


def clean_comparison(names=("baseline", "comp_wf")):
    return SweepRunner(systems=names, **SMALL).run_comparison("milc", seed=3)


class TestPartialResults:
    def test_siblings_survive_a_poisoned_task(self):
        report = poisoned_runner().run_report(
            ("milc",), seed=3
        )
        assert not report.ok
        assert set(report.results["milc"]) == {"baseline", "comp_wf"}
        assert report.n_tasks == 3
        [failure] = report.failures
        assert isinstance(failure, TaskFailure)
        assert failure.task.system == POISON
        assert failure.task.workload == "milc"
        assert failure.error_type == "ValueError"
        assert POISON in failure.message
        assert "build_simulator" in failure.traceback
        assert failure.attempts == 1

    def test_parallel_pool_matches_serial_partial_results(self):
        serial = poisoned_runner(workers=1).run_report(("milc",), seed=3)
        parallel = poisoned_runner(workers=3).run_report(("milc",), seed=3)
        assert parallel.results["milc"] == serial.results["milc"]
        # The tasks' runners differ in ``workers`` alone; compare cells.
        def failed(report):
            return [
                (f.task.workload, f.task.system, f.task.seed, f.message)
                for f in report.failures
            ]

        assert failed(parallel) == failed(serial)

    def test_surviving_results_match_a_clean_sweep(self):
        clean = clean_comparison()
        report = poisoned_runner().run_report(
            ("milc",), seed=3
        )
        assert report.results["milc"] == clean

    def test_multi_workload_grid_completes_around_failures(self):
        report = poisoned_runner(workers=2).run_report(
            ("milc", "gcc"), seed=3
        )
        for workload in ("milc", "gcc"):
            assert set(report.results[workload]) == {"baseline", "comp_wf"}
        assert len(report.failures) == 2  # one poisoned task per workload


class TestFailureModes:
    def test_raise_mode_raises_after_finishing_the_grid(self):
        with pytest.raises(SweepError) as excinfo:
            poisoned_runner().run(("milc",), seed=3)
        report = excinfo.value.report
        assert set(report.results["milc"]) == {"baseline", "comp_wf"}
        assert POISON in str(excinfo.value)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            SweepRunner(retries=-1)


class TestRetries:
    def test_retry_budget_is_spent_and_recorded(self):
        report = poisoned_runner(retries=2).run_report(("milc",), seed=3)
        [failure] = report.failures
        assert failure.attempts == 3  # 1 initial + 2 retries

    def test_parallel_retries_match(self):
        report = poisoned_runner(retries=1, workers=2).run_report(("milc",), seed=3)
        [failure] = report.failures
        assert failure.attempts == 2


class TestRetryQuarantine:
    """A retry must never resume the crashed attempt's stale state.

    Before the fix, a retried task reran into the same run directory:
    with ``resume=True`` it silently resumed from the *failed*
    attempt's latest checkpoint -- state that may be exactly what made
    the attempt crash -- and its telemetry was appended onto the
    crashed stream.  Now every retry quarantines the leftovers into
    ``attempt-<N>/`` first and starts clean.
    """

    def test_retry_does_not_resume_the_crashed_attempts_state(
        self, tmp_path, monkeypatch
    ):
        """Crash after the second checkpoint; the first attempt's state
        is (silently) corrupted in between, so resuming its checkpoint
        would finish with a result no clean run can produce."""
        from repro.lifetime.telemetry import JsonlObserver

        clean = clean_comparison(("comp_wf",))["comp_wf"]

        state = {"simulator": None, "checkpoints": 0}
        real_start = JsonlObserver.on_run_start
        real_checkpoint = JsonlObserver.on_checkpoint

        def spying_start(self, simulator, writes_issued):
            state["simulator"] = simulator
            real_start(self, simulator, writes_issued)

        def sabotaging_checkpoint(self, path, writes_issued):
            real_checkpoint(self, path, writes_issued)
            state["checkpoints"] += 1
            if state["checkpoints"] == 1:
                # Corrupt the running attempt: skip part of the write
                # stream, so the next checkpoint captures a state no
                # clean run ever reaches.
                for _ in range(3):
                    state["simulator"]._next_write()
            elif state["checkpoints"] == 2:
                raise RuntimeError("transient storage hiccup")

        monkeypatch.setattr(JsonlObserver, "on_run_start", spying_start)
        monkeypatch.setattr(JsonlObserver, "on_checkpoint", sabotaging_checkpoint)

        runner = SweepRunner(
            systems=("comp_wf",), workers=1, retries=1,
            checkpoint_dir=str(tmp_path), checkpoint_interval=300,
            resume=True, **SMALL,
        )
        report = runner.run_report(("milc",), seed=3)
        assert report.ok
        assert report.results["milc"]["comp_wf"] == clean

        run_dir = tmp_path / "milc-comp_wf"
        quarantined = run_dir / "attempt-1"
        assert list_checkpoints(quarantined), "crashed checkpoints kept"
        assert (quarantined / "events.jsonl").exists()
        # The retry's telemetry is a fresh stream: exactly one start
        # event, and it did not resume anything.
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
        ]
        starts = [e for e in events if e["event"] == "start"]
        assert len(starts) == 1
        assert starts[0]["resumed"] is False

    def test_corrupt_checkpoint_self_heals_in_the_parallel_pool(self, tmp_path):
        """A torn/garbage checkpoint fails the first attempt; the retry
        quarantines it and completes cleanly (both pool workers)."""
        clean = clean_comparison()
        run_dir = tmp_path / "milc-comp_wf"
        run_dir.mkdir(parents=True)
        poison = run_dir / "checkpoint-000000000100.pkl"
        poison.write_bytes(b"not a pickle")

        runner = SweepRunner(
            systems=("baseline", "comp_wf"), workers=2, retries=1,
            checkpoint_dir=str(tmp_path), checkpoint_interval=300,
            resume=True, **SMALL,
        )
        report = runner.run_report(("milc",), seed=3)
        assert report.ok
        assert report.results["milc"] == clean
        assert (run_dir / "attempt-1" / poison.name).read_bytes() == (
            b"not a pickle"
        )
        assert poison not in list_checkpoints(run_dir)

    def test_quarantine_numbering_and_noop_paths(self, tmp_path):
        runner = SweepRunner(
            systems=("comp_wf",), n_lines=8, endurance_mean=5.0,
            max_writes=100, checkpoint_dir=str(tmp_path),
        )
        [task] = runner.tasks(("milc",))
        # Checkpointing off, missing run dir, empty run dir: no-ops.
        off = dataclasses.replace(runner, checkpoint_dir=None)
        assert quarantine_attempt(
            dataclasses.replace(task, runner=off), 1
        ) is None
        assert quarantine_attempt(task, 1) is None
        run_dir = Path(task.run_dir)
        run_dir.mkdir(parents=True)
        assert quarantine_attempt(task, 1) is None

        (run_dir / "events.jsonl").write_text("{}\n")
        assert quarantine_attempt(task, 1) == str(run_dir / "attempt-1")
        assert (run_dir / "attempt-1" / "events.jsonl").exists()

        (run_dir / "checkpoint-000000000001.pkl").write_bytes(b"x")
        assert quarantine_attempt(task, 2) == str(run_dir / "attempt-2")
        # Later quarantines never disturb earlier ones...
        assert (run_dir / "attempt-1" / "events.jsonl").exists()
        assert (run_dir / "attempt-2" / "checkpoint-000000000001.pkl").exists()
        # ... and a directory holding only attempt-*/ is again a no-op.
        assert quarantine_attempt(task, 3) is None


class TestManifestAndCheckpoints:
    def test_manifest_records_completions_and_failures(self, tmp_path):
        runner = poisoned_runner(checkpoint_dir=str(tmp_path))
        runner.run_report(("milc",), seed=3)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_tasks"] == 3
        assert manifest["seed"] == 3
        done = {(c["workload"], c["system"]) for c in manifest["completed"]}
        assert done == {("milc", "baseline"), ("milc", "comp_wf")}
        [failure] = manifest["failures"]
        assert failure["system"] == POISON
        assert failure["error_type"] == "ValueError"
        assert "Traceback" in failure["traceback"]

    def test_tasks_checkpoint_into_per_run_directories(self, tmp_path):
        runner = SweepRunner(
            systems=("comp_wf",), checkpoint_dir=str(tmp_path),
            checkpoint_interval=500, **SMALL,
        )
        clean = runner.run(("milc",), seed=3)
        run_dir = tmp_path / "milc-comp_wf"
        assert latest_checkpoint(run_dir) is not None
        assert (run_dir / "events.jsonl").exists()
        # Resuming the finished run from its last checkpoint replays the
        # tail bit-identically.
        resumed_runner = SweepRunner(
            systems=("comp_wf",), checkpoint_dir=str(tmp_path),
            checkpoint_interval=500, resume=True, **SMALL,
        )
        resumed = resumed_runner.run(("milc",), seed=3)
        assert resumed["milc"]["comp_wf"] == clean["milc"]["comp_wf"]

    def test_poisoned_task_spec_round_trips_through_pickle(self):
        import pickle

        runner = SweepRunner(
            n_lines=8, endurance_mean=5.0, max_writes=100,
            checkpoint_dir="/tmp/x", checkpoint_interval=50, resume=True,
        )
        task = SweepTask(POISON, "milc", runner, seed=0)
        assert pickle.loads(pickle.dumps(task)) == task
        with pytest.raises(ValueError, match=POISON):
            run_task(task)
