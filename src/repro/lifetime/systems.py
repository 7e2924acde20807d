"""Builders for the paper's lifetime experiments.

:func:`build_simulator` wires a workload profile, a system config and
the scaled simulation parameters into one ready-to-run simulator; it is
what :func:`repro.engine.sweep.run_task` calls for every grid cell.  A
grid of them (one Figure 10 column group, say) runs through
:class:`~repro.engine.SweepRunner`::

    results = SweepRunner(n_lines=128, endurance_mean=60).run_comparison("gcc")
    normalized_against_baseline(results)
"""

from __future__ import annotations

from ..engine.registry import resolve_config
from ..traces import SyntheticWorkload, get_profile
from .results import LifetimeResult, normalized_lifetime
from .simulator import LifetimeSimulator


def scaled_intra_counter_limit(
    endurance_mean: float, lines_per_bank: int = 32, cycles: float = 2.0
) -> int:
    """Intra-WL counter limit matched to a scaled simulation.

    The paper pairs 16-bit counters with a 1e7-write endurance: a line's
    compression window visits many of the 64 byte offsets during the
    cells' lifetime, while consecutive writes rarely see a moved window
    (each move rewrites the whole window, costing extra flips).  At
    simulation scale both properties must be preserved *relative to the
    scaled lifetime*: we size the counter so the offset completes about
    ``cycles`` full 64-step rotations over the bank's total write budget,

        bank writes to death ~ lines_per_bank * endurance * 512 / (2*flips)

    with ``flips ~ 20`` per write.  Smaller limits over-rotate and
    inflate flips (an artifact the paper-scale system never sees).
    """
    bank_writes_to_death = lines_per_bank * endurance_mean * 512 / (2 * 20)
    return max(16, round(bank_writes_to_death / (64 * cycles)))


def build_simulator(
    system: str,
    workload: str,
    n_lines: int = 256,
    endurance_mean: float = 100.0,
    endurance_cov: float = 0.15,
    seed: int = 0,
    **config_overrides,
) -> LifetimeSimulator:
    """A ready-to-run simulator for one (system, workload) pair.

    ``system`` is any registered :class:`~repro.engine.SystemSpec` name
    (the four paper systems plus ablation/extension variants).
    ``config_overrides`` replace config knobs (``tier_lines=8``,
    ``n_banks=4``, ...); ``intra_counter_limit`` defaults to the
    simulation-scaled value for the config's bank count.
    """
    config = resolve_config(system, **config_overrides)
    if "intra_counter_limit" not in config_overrides:
        lines_per_bank = max(1, n_lines // config.n_banks)
        config = config.with_overrides(
            intra_counter_limit=scaled_intra_counter_limit(endurance_mean, lines_per_bank)
        )
    source = SyntheticWorkload(get_profile(workload), n_lines=n_lines, seed=seed)
    return LifetimeSimulator(
        config=config,
        source=source,
        n_lines=n_lines,
        endurance_mean=endurance_mean,
        endurance_cov=endurance_cov,
        seed=seed + 1,
    )


def normalized_against_baseline(
    results: dict[str, LifetimeResult]
) -> dict[str, float]:
    """Figure 10 normalization: every system over the baseline run."""
    if "baseline" not in results:
        raise ValueError("need a baseline run to normalize against")
    baseline = results["baseline"]
    return {
        name: normalized_lifetime(result, baseline)
        for name, result in results.items()
    }
