"""Lifetime experiments: Figures 10, 12, 13 and Table IV.

These wrap :mod:`repro.lifetime` into per-figure studies.  Simulation
scale (lines, endurance) is configurable; the defaults trade precision
for wall-clock time and are what the benchmarks use.  All Figure 10/13
numbers are normalized to the baseline run, which is the scale-invariant
quantity (see ``tests/lifetime/test_scaling_invariance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.sweep import SweepRunner
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
    seed: int = 0,
    batch: int = 1,
    progress: bool = False,
    **settings,
) -> dict[str, WorkloadStudy]:
    """Figure 10 (cov=0.15) or Figure 13 (cov=0.25) across workloads.

    The whole (workload x system) grid is one
    :class:`~repro.engine.SweepRunner` call; ``settings`` are its
    fields (``systems``, ``workers``, ``config_overrides``,
    ``checkpoint_dir``, ...), and ``seed``, ``batch`` and ``progress``
    are its per-run options.  Absent scale settings take the study's:
    96 lines, endurance 60 at the paper's CoV, 4 M writes per run.
    A run that does not reach the failure criterion raises
    ``RuntimeError``.
    """
    runner = SweepRunner(**{
        "n_lines": 96,
        "endurance_mean": 60.0,
        "endurance_cov": PAPER_ENDURANCE_COV,
        "max_writes": 4_000_000,
        **settings,
    })
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
