"""Lifetime result records and paper-scale extrapolation.

Simulations run with scaled-down endurance and capacity (DESIGN.md,
substitution table); this module converts simulated writes-to-failure
into the absolute months of Table IV by linear extrapolation through
the scale factors, and computes the normalized lifetimes of Figure 10
(which are scale-invariant -- verified in
``tests/lifetime/test_scaling_invariance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.context import ControllerStats
from ..pcm import PAPER_ENDURANCE_MEAN, PCMEnergy

#: Paper-scale memory: 4 GB of 64-byte lines (Table II).
PAPER_TOTAL_LINES = 4 * 2**30 // 64
#: Table II CMP: 16 cores at 2.5 GHz.
PAPER_CORES = 16
PAPER_CLOCK_HZ = 2.5e9
SECONDS_PER_MONTH = 3600 * 24 * 30


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of one lifetime simulation run.

    The run-level fields are what only the run knows; every write-path
    counter lives in ``stats``, a copy of the controller's
    :class:`~repro.engine.context.ControllerStats` taken when the run
    returned.  The death fields carry the numerators and denominators
    of the Figure 10/12 ratios, so fleet records merge exactly.
    """

    system: str
    workload: str
    n_lines: int
    endurance_mean: float
    writes_issued: int
    failed: bool  # True when the 50%-capacity criterion was reached
    capacity_lines: int
    dead_blocks: int
    death_fault_total: int
    death_fault_blocks: int
    stats: ControllerStats

    @property
    def dead_fraction(self) -> float:
        """Dead blocks over the nominal (non-spare) capacity."""
        return self.dead_blocks / self.capacity_lines if self.capacity_lines else 0.0

    @property
    def avg_faults_per_dead_block(self) -> float:
        """Figure 12: mean stuck cells a block held at its (last) death."""
        if not self.death_fault_blocks:
            return 0.0
        return self.death_fault_total / self.death_fault_blocks

    @property
    def compressed_write_fraction(self) -> float:
        """Stored writes that landed compressed."""
        stored = self.stats.stored_writes
        return self.stats.compressed_writes / stored if stored else 0.0

    @property
    def writes_to_failure(self) -> int | None:
        """Writes survived before memory death (None if still alive)."""
        return self.writes_issued if self.failed else None

    @property
    def flips_per_write(self) -> float:
        """Mean cells programmed per demand write (wear/energy proxy)."""
        if not self.writes_issued:
            return 0.0
        return self.stats.total_flips / self.writes_issued

    def write_energy_pj(self, energy: PCMEnergy | None = None) -> float:
        """Total array programming energy over the run (picojoules)."""
        energy = energy or PCMEnergy()
        return energy.write_energy_pj(self.stats.set_flips, self.stats.reset_flips)

    def energy_breakdown(self, scheme: str = "ecp6", model=None):
        """Full per-operation energy split (see :mod:`repro.energy`).

        Prices ``stats`` per issued write: array cells, encoding flag
        cells, and the correction scheme's write-path logic; ``scheme``
        should be the run's ``correction_scheme``.  Returns an
        :class:`~repro.energy.model.EnergyBreakdown`.
        """
        # Deferred import: repro.energy imports this module's package.
        from ..energy.model import EnergyModel

        model = model or EnergyModel()
        return model.breakdown(self.stats, scheme=scheme, writes=self.writes_issued)


#: The run-level fields that sum across disjoint shards.
_ADDITIVE_FIELDS = (
    "n_lines", "writes_issued", "capacity_lines", "dead_blocks",
    "death_fault_total", "death_fault_blocks",
)


def merge_results(results) -> LifetimeResult:
    """Exact fleet aggregate of per-shard :class:`LifetimeResult` records.

    Shards of one service run are disjoint address slices of one fleet,
    so the run-level counts sum, the counters merge through
    :meth:`ControllerStats.merge_all`, and the ratio properties follow
    from the summed numerators and denominators -- the merged record is
    what a single bookkeeper watching all shards at once would have
    written down.  Requires at least one record, all with the same
    system and endurance mean; a single record merges to itself
    unchanged.  The merged ``failed`` flag applies the fleet-level
    criterion: every shard must have reached its own failure threshold.
    """
    results = list(results)
    if not results:
        raise ValueError("cannot merge zero results")
    if len(results) == 1:
        return results[0]
    systems = {r.system for r in results}
    if len(systems) > 1:
        raise ValueError(f"cannot merge results across systems: {sorted(systems)}")
    means = {r.endurance_mean for r in results}
    if len(means) > 1:
        raise ValueError(
            f"cannot merge results across endurance means: {sorted(means)}"
        )
    workloads = {r.workload for r in results}
    return LifetimeResult(
        system=results[0].system,
        workload=results[0].workload if len(workloads) == 1 else "fleet",
        endurance_mean=results[0].endurance_mean,
        failed=all(r.failed for r in results),
        stats=ControllerStats.merge_all(r.stats for r in results),
        **{name: sum(getattr(r, name) for r in results) for name in _ADDITIVE_FIELDS},
    )


def normalized_lifetime(result: LifetimeResult, baseline: LifetimeResult) -> float:
    """Figure 10's metric: writes-to-failure over the baseline's."""
    if not (result.failed and baseline.failed):
        raise ValueError(
            "both runs must reach the failure criterion to normalize "
            f"({result.system}: failed={result.failed}, "
            f"{baseline.system}: failed={baseline.failed})"
        )
    return result.writes_issued / baseline.writes_issued


def lifetime_months(
    result: LifetimeResult,
    wpki: float,
    ipc: float = 1.0,
    cores: int = PAPER_CORES,
    clock_hz: float = PAPER_CLOCK_HZ,
) -> float:
    """Extrapolate a scaled run to paper-scale months (Table IV).

    Writes-to-failure scale linearly in both per-cell endurance and
    memory capacity, so the paper-scale write budget is::

        writes_sim * (1e7 / endurance_mean) * (PAPER_LINES / n_lines)

    and the wall-clock rate of write-backs is ``WPKI/1000`` per
    instruction across ``cores`` running at ``ipc * clock_hz``.
    """
    if not result.failed:
        raise ValueError("cannot extrapolate an unfinished run")
    if wpki <= 0 or ipc <= 0:
        raise ValueError("WPKI and IPC must be positive")
    scale = (PAPER_ENDURANCE_MEAN / result.endurance_mean) * (
        PAPER_TOTAL_LINES / result.n_lines
    )
    paper_writes = result.writes_issued * scale
    writes_per_second = (wpki / 1000.0) * ipc * clock_hz * cores
    return paper_writes / writes_per_second / SECONDS_PER_MONTH
