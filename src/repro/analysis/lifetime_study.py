"""Lifetime experiments: Figures 10, 12, 13 and Table IV.

These wrap :mod:`repro.lifetime` into per-figure studies.  Simulation
scale (lines, endurance) is configurable; the defaults trade precision
for wall-clock time and are what the benchmarks use.  All Figure 10/13
numbers are normalized to the baseline run, which is the scale-invariant
quantity (see ``tests/lifetime/test_scaling_invariance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import EVALUATED_SYSTEMS
from ..engine.sweep import SweepRunner, check_names
from ..lifetime import LifetimeResult, lifetime_months, normalized_against_baseline
from ..pcm import HIGH_VARIATION_COV, PAPER_ENDURANCE_COV
from ..traces import WORKLOAD_ORDER, get_profile


@dataclass
class WorkloadStudy:
    """All lifetime metrics for one workload."""

    workload: str
    results: dict[str, LifetimeResult]
    normalized: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.normalized = normalized_against_baseline(self.results)

    def months(self, system: str) -> float:
        """Table IV extrapolation for one system."""
        return lifetime_months(
            self.results[system], wpki=get_profile(self.workload).wpki
        )

    def tolerated_faults(self, system: str = "comp_wf") -> float:
        """Figure 12 metric: average faults in a failed block."""
        return self.results[system].avg_faults_per_dead_block


def run_workload_study(workload: str, **kwargs) -> WorkloadStudy:
    """One Figure 10 column group: :func:`run_full_study` on one workload."""
    return run_full_study((workload,), **kwargs)[workload]


def run_full_study(
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
    systems: tuple[str, ...] = EVALUATED_SYSTEMS,
    n_lines: int = 96,
    endurance_mean: float = 60.0,
    endurance_cov: float = PAPER_ENDURANCE_COV,
    seed: int = 0,
    max_writes: int = 4_000_000,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
    resume: bool = False,
    progress: bool = False,
    batch: int = 1,
    config_overrides: dict[str, object] | None = None,
) -> dict[str, WorkloadStudy]:
    """Figure 10 (cov=0.15) or Figure 13 (cov=0.25) across workloads.

    The whole (workload x system) grid is one
    :class:`~repro.engine.SweepRunner` call -- in-process with
    ``workers=1``, fanned out across processes otherwise, with
    identical results.  The options mean what they mean for
    :func:`repro.lifetime.run_system_comparison`: only
    ``config_overrides`` (knobs replaced in every system, e.g. the
    DRAM tier's ``tier_lines``) changes the simulated results, by
    design.
    Unknown names raise ``ValueError`` before any run starts; a run
    that does not reach the failure criterion raises ``RuntimeError``.
    """
    check_names(workloads, systems)
    runner = SweepRunner(
        systems=tuple(systems),
        workers=workers,
        n_lines=n_lines,
        endurance_mean=endurance_mean,
        endurance_cov=endurance_cov,
        max_writes=max_writes,
        config_overrides=dict(config_overrides or {}),
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        resume=resume,
    )
    grid = runner.run(workloads, seed, batch, progress)
    studies = {}
    for workload, results in grid.items():
        unfinished = [name for name, result in results.items() if not result.failed]
        if unfinished:
            raise RuntimeError(
                f"runs did not reach the failure criterion: {unfinished}; "
                "raise max_writes or shrink the memory"
            )
        studies[workload] = WorkloadStudy(workload=workload, results=results)
    return studies


def geometric_mean_normalized(
    studies: dict[str, WorkloadStudy], system: str
) -> float:
    """Average normalized lifetime across workloads (paper uses the
    arithmetic mean of per-application normalized lifetimes)."""
    values = [study.normalized[system] for study in studies.values()]
    return sum(values) / len(values)


def high_variation_study(**kwargs) -> dict[str, WorkloadStudy]:
    """Figure 13: Comp+WF vs baseline at CoV = 0.25."""
    kwargs.setdefault("systems", ("baseline", "comp_wf"))
    return run_full_study(endurance_cov=HIGH_VARIATION_COV, **kwargs)
