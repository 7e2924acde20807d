"""Parallel, fault-tolerant (profile x system) lifetime sweep runner.

A full Figure 10/13 study is dozens of completely independent lifetime
simulations -- one per (workload profile, system) pair.
:class:`SweepRunner` is the one driver every grid goes through, and the
one place a grid's settings live (systems, scale, write budget, worker
count, config overrides, checkpointing).  The study drivers
(:func:`repro.analysis.run_full_study`,
:func:`repro.energy.run_energy_sweep`) build one runner and add only
what is their own; a single workload is
``SweepRunner(...).run_comparison(workload)``.  The runner runs the
grid in-process with ``workers=1`` (the default) or fans it out across
worker processes, and merges the per-run
:class:`~repro.lifetime.results.LifetimeResult`\\ s back into one
``{workload: {system: result}}`` grid.  Unknown workload or system
names raise ``ValueError`` before any run starts.  :func:`run_task` is
the only code that builds and runs one lifetime run, so every option
(batch size, DRAM tier, checkpoints, progress lines) works at every
worker count.

Determinism: each run builds its own simulator from ``(system,
workload, seed)``, so the results are bit-for-bit identical regardless
of worker count or scheduling (verified by ``tests/engine/test_sweep.py``).

Fault tolerance: tasks run as individual futures, never ``pool.map``
(whose iteration rethrows the first worker exception and discards every
completed sibling result).  A failing task is retried up to
``retries`` times, then recorded as a structured :class:`TaskFailure`
(task spec + traceback); the sweep always finishes the rest of the grid
and reports partial results (verified by
``tests/engine/test_sweep_failures.py``).  A JSON run-manifest of task
outcomes can be written for post-mortems, and per-run checkpointing /
resume (see :mod:`repro.lifetime.checkpoint`) lets an interrupted grid
pick up where it stopped.
"""

from __future__ import annotations

import json
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..core.config import EVALUATED_SYSTEMS
from .registry import get_system

#: Manifest JSON schema version.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class SweepTask:
    """One independent lifetime run: a grid cell of its runner.

    Holds only the cell and the per-call options; every grid setting
    is read from ``runner``.  Fully pickleable, so it crosses into pool
    workers as is.
    """

    system: str
    workload: str
    runner: SweepRunner
    seed: int = 0
    #: Write-backs per controller call (``LifetimeSimulator.run``'s
    #: ``batch``; results are identical at every size).
    batch: int = 1
    #: Print per-heartbeat ``[workload/system]`` progress lines to stderr.
    progress: bool = False

    @property
    def run_dir(self) -> str | None:
        """This task's checkpoint/telemetry directory (None when off):
        ``<workload>-<system>`` under the runner's ``checkpoint_dir``."""
        if self.runner.checkpoint_dir is None:
            return None
        return os.path.join(
            self.runner.checkpoint_dir, f"{self.workload}-{self.system}"
        )


@dataclass(frozen=True)
class TaskFailure:
    """One task that kept failing after its retry budget."""

    task: SweepTask
    error_type: str
    message: str
    traceback: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"({self.task.workload}, {self.task.system}) failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


class SweepError(RuntimeError):
    """A sweep had failing tasks; raised by :meth:`SweepRunner.run`.

    The partial results are not lost: :attr:`report` carries every
    completed sibling result plus the structured failures.
    """

    def __init__(self, report: "SweepReport") -> None:
        lines = [str(failure) for failure in report.failures]
        super().__init__(
            f"{len(report.failures)} of {report.n_tasks} sweep task(s) "
            "failed:\n  " + "\n  ".join(lines)
        )
        self.report = report


@dataclass
class SweepReport:
    """Outcome of one sweep: partial results plus structured failures."""

    results: dict[str, dict[str, object]]
    failures: list[TaskFailure]
    n_tasks: int

    @property
    def ok(self) -> bool:
        """True when every task of the grid completed."""
        return not self.failures

    def raise_if_failed(self) -> None:
        """Raise :class:`SweepError` when any task failed."""
        if self.failures:
            raise SweepError(self)

    def to_manifest(self, seed: int | None = None) -> dict:
        """The JSON-serializable run-manifest of this sweep."""
        completed = [
            {
                "workload": result.workload,
                "system": system,
                "writes_issued": result.writes_issued,
                "failed": result.failed,
                "dead_fraction": result.dead_fraction,
            }
            for by_system in self.results.values()
            for system, result in by_system.items()
        ]
        return {
            "version": MANIFEST_VERSION,
            "seed": seed,
            "n_tasks": self.n_tasks,
            "completed": completed,
            "failures": [
                {
                    "workload": failure.task.workload,
                    "system": failure.task.system,
                    "seed": failure.task.seed,
                    "error_type": failure.error_type,
                    "message": failure.message,
                    "attempts": failure.attempts,
                    "traceback": failure.traceback,
                }
                for failure in self.failures
            ],
        }


def quarantine_run_dir(run_dir: str | None, attempt: int) -> str | None:
    """Move a crashed attempt's artifacts into ``attempt-<N>/``.

    The directory-level primitive behind :func:`quarantine_attempt`,
    shared with the memory service's shard-restart path
    (:mod:`repro.service`): everything the attempt left in ``run_dir``
    (checkpoints, ``events.jsonl``) is moved into an ``attempt-<N>/``
    subdirectory -- kept for post-mortems, invisible to
    ``latest_checkpoint`` and to the retry's fresh JSONL stream.

    Returns the quarantine directory, or None when there was nothing
    to move (no directory, or the attempt died before creating one).
    """
    if run_dir is None or not os.path.isdir(run_dir):
        return None
    entries = [
        name for name in os.listdir(run_dir)
        if not name.startswith("attempt-")
    ]
    if not entries:
        return None
    quarantine = os.path.join(run_dir, f"attempt-{attempt}")
    os.makedirs(quarantine, exist_ok=True)
    for name in entries:
        os.replace(
            os.path.join(run_dir, name), os.path.join(quarantine, name)
        )
    return quarantine


def quarantine_attempt(task: SweepTask, attempt: int) -> str | None:
    """Preserve a crashed attempt's run artifacts before a retry.

    Retrying into a run directory that still holds the crashed
    attempt's files is a correctness trap: with ``resume`` set the
    retry would silently resume from the *failed* attempt's latest
    checkpoint -- state that may be exactly what made it crash --
    instead of starting clean, and its telemetry stream would be
    appended onto the crashed one.  See :func:`quarantine_run_dir` for
    what moves where.
    """
    return quarantine_run_dir(task.run_dir, attempt)


def run_task(task: SweepTask):
    """Build and run one lifetime simulation; the worker entry point.

    The only code that builds a study run: ``workers=1`` calls it
    in-process, pool workers call it in their own process.
    """
    # Imported here (not at module top) so the engine package can be
    # imported without pulling the whole lifetime stack, and so forked
    # workers resolve it against their own interpreter state.
    from ..lifetime.checkpoint import latest_checkpoint
    from ..lifetime.simulator import DEFAULT_CHECKPOINT_INTERVAL
    from ..lifetime.systems import build_simulator
    from ..lifetime.telemetry import JsonlObserver, ProgressObserver

    runner = task.runner
    simulator = build_simulator(
        task.system,
        task.workload,
        n_lines=runner.n_lines,
        endurance_mean=runner.endurance_mean,
        endurance_cov=runner.endurance_cov,
        seed=task.seed,
        **runner.config_overrides,
    )
    run_kwargs: dict = {"max_writes": runner.max_writes, "batch": task.batch}
    observers: list = []
    run_dir = task.run_dir
    if run_dir is not None:
        run_kwargs["checkpoint_dir"] = run_dir
        run_kwargs["checkpoint_interval"] = (
            runner.checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
        )
        observers.append(JsonlObserver(os.path.join(run_dir, "events.jsonl")))
        if runner.resume:
            run_kwargs["resume_from"] = latest_checkpoint(run_dir)
    if task.progress:
        observers.append(ProgressObserver())
    return simulator.run(observers=tuple(observers), **run_kwargs)


@dataclass
class SweepRunner:
    """Runs a (profile x system) grid of lifetime runs, in-process or
    across worker processes.

    Args:
        systems: System names (registry specs) to run per workload.
        workers: Worker processes; ``1`` (the default) runs serially
            in-process (no pool, handy for debugging), ``None`` uses
            the CPU count.  Every run gets the same base seed, so the
            worker count never changes a result.
        n_lines, endurance_mean, endurance_cov: Simulation scale of
            every run (see :func:`repro.lifetime.build_simulator`).
        max_writes: Write budget per run; a run that does not reach the
            failure criterion within it ends unfailed.
        config_overrides: Config knobs replaced in every run's system
            (``tier_lines``, ``wl_backend``, ...); an absent knob keeps
            each system's own value, a present one applies as given --
            ``{"tier_lines": 0}`` runs every system bare, even
            ``comp_wf_hybrid``.
        retries: How often a failing task is re-executed before being
            recorded as a :class:`TaskFailure` (0 = no retries).  Every
            retry starts from a *clean* run directory: whatever the
            crashed attempt left there (checkpoints, ``events.jsonl``)
            is first moved into an ``attempt-<N>/`` subdirectory by
            :func:`quarantine_attempt`, so a ``resume`` sweep never
            silently resumes a failed attempt's stale state.
        checkpoint_dir: Root directory for per-run checkpoints and
            JSONL telemetry (``<workload>-<system>/`` per task) and the
            sweep's ``manifest.json``.  None disables all of it.
        checkpoint_interval: Writes between per-run checkpoints (0 =
            simulator default).
        resume: Resume each task from its latest checkpoint when one
            exists under ``checkpoint_dir``.
    """

    systems: tuple[str, ...] = EVALUATED_SYSTEMS
    workers: int | None = 1
    n_lines: int = 256
    endurance_mean: float = 100.0
    endurance_cov: float = 0.15
    max_writes: int = 2_000_000
    config_overrides: dict = field(default_factory=dict)
    retries: int = 0
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 0
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")

    def tasks(
        self, workloads, seed: int = 0, batch: int = 1, progress: bool = False
    ) -> list[SweepTask]:
        """The task grid for a sweep, in (workload, system) order.

        ``batch`` and ``progress`` say how each run executes (see
        :class:`SweepTask`); neither changes a result.
        """
        return [
            SweepTask(system, workload, self, seed, batch, progress)
            for workload in workloads
            for system in self.systems
        ]

    # -- execution -------------------------------------------------------

    def run_report(
        self, workloads, seed: int = 0, batch: int = 1, progress: bool = False
    ) -> SweepReport:
        """Run the full grid, capturing failures instead of aborting.

        Every task is attempted (and retried up to ``retries`` times);
        the report carries results for each completed (workload,
        system) pair and a :class:`TaskFailure` per task that kept
        failing.  When ``checkpoint_dir`` is set, the sweep's
        ``manifest.json`` is (re)written there afterwards.  An unknown
        workload or system name raises ``ValueError`` before any task
        runs, rather than as a task failure after the rest of the grid.
        """
        from ..core.window import clear_window_caches
        from ..traces import get_profile

        workloads = tuple(workloads)
        for system in self.systems:
            get_system(system)
        for workload in workloads:
            get_profile(workload)
        tasks = self.tasks(workloads, seed=seed, batch=batch, progress=progress)
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        workers = min(workers, len(tasks)) or 1
        try:
            if workers == 1:
                outcomes = [self._attempt_serial(task) for task in tasks]
            else:
                outcomes = self._attempt_parallel(tasks, workers)
        finally:
            # Sweep-worker teardown: the placement caches in
            # repro.core.window are module-global and would otherwise
            # outlive the sweep in this (potentially long-lived)
            # process; pool workers release theirs on process exit.
            clear_window_caches()

        merged: dict[str, dict[str, object]] = {w: {} for w in workloads}
        failures: list[TaskFailure] = []
        for task, outcome in zip(tasks, outcomes):
            if isinstance(outcome, TaskFailure):
                failures.append(outcome)
            else:
                merged[task.workload][task.system] = outcome
        report = SweepReport(
            results=merged, failures=failures, n_tasks=len(tasks)
        )
        if self.checkpoint_dir is not None:
            self.write_manifest(report, seed=seed)
        return report

    def run(
        self, workloads, seed: int = 0, batch: int = 1, progress: bool = False
    ) -> dict[str, dict[str, object]]:
        """Run the full grid; returns ``{workload: {system: result}}``.

        A failing task raises :class:`SweepError` *after* the rest of
        the grid finished (the exception's ``report`` holds the partial
        results).  Use :meth:`run_report` to get the partial grid
        without raising.
        """
        report = self.run_report(workloads, seed, batch, progress)
        report.raise_if_failed()
        return report.results

    def run_comparison(
        self, workload: str, seed: int = 0, batch: int = 1, progress: bool = False
    ) -> dict[str, object]:
        """One workload across all systems (a Figure 10 column group)."""
        return self.run((workload,), seed, batch, progress)[workload]

    def write_manifest(self, report: SweepReport, seed: int | None = None) -> str:
        """Write the sweep run-manifest JSON; returns its path."""
        assert self.checkpoint_dir is not None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        path = os.path.join(self.checkpoint_dir, "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(report.to_manifest(seed=seed), handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    # -- attempt plumbing ------------------------------------------------

    def _attempt_serial(self, task: SweepTask):
        """Run one task in-process with the retry budget."""
        for attempt in range(1, self.retries + 2):
            if attempt > 1:
                quarantine_attempt(task, attempt - 1)
            try:
                return run_task(task)
            except Exception as error:  # noqa: BLE001 -- captured, reported
                failure = self._failure(task, error, attempt)
        return failure

    def _attempt_parallel(self, tasks: list[SweepTask], workers: int) -> list:
        """Run the grid as independent futures; failures never cascade."""
        outcomes: list = [None] * len(tasks)
        attempts = dict.fromkeys(range(len(tasks)), 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(run_task, task): index
                for index, task in enumerate(tasks)
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        outcomes[index] = future.result()
                        continue
                    if attempts[index] <= self.retries:
                        quarantine_attempt(tasks[index], attempts[index])
                        attempts[index] += 1
                        pending[pool.submit(run_task, tasks[index])] = index
                        continue
                    outcomes[index] = self._failure(
                        tasks[index], error, attempts[index]
                    )
        return outcomes

    @staticmethod
    def _failure(task: SweepTask, error: BaseException, attempts: int) -> TaskFailure:
        return TaskFailure(
            task=task,
            error_type=type(error).__name__,
            message=str(error),
            traceback="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
            attempts=attempts,
        )
