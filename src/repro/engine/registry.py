"""Declarative system registry: one table of named ``SystemSpec``s.

The paper's evaluated systems (Baseline / Comp / Comp+W / Comp+WF) and
the repo's ablation/extension variants live in one table, built once
at import.  :func:`resolve_config` is the only way to turn a system
name into a :class:`~repro.core.config.SystemConfig`:

    >>> from repro.engine import resolve_config, system_names
    >>> resolve_config("comp_wf").use_dead_block_revival
    True
    >>> resolve_config("comp_wf", tier_lines=8).tier_lines
    8
    >>> "comp_wf_safer32" in system_names()
    True

:func:`get_system` returns the spec itself (description, tags, stage
composition); ``python -m repro systems`` prints the table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import config as _config
from ..core.config import SystemConfig


@dataclass(frozen=True)
class SystemSpec:
    """One named system: a config plus registry metadata."""

    name: str
    description: str
    config: SystemConfig
    #: Free-form grouping labels (``paper``, ``ablation``, ``extension``,
    #: ``energy``).
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.name != self.config.name:
            raise ValueError(
                f"spec name {self.name!r} != config name {self.config.name!r}"
            )

    def stage_summary(self) -> list[str]:
        """One line per write-path stage, as composed for this system."""
        from ..core.controller import CompressedPCMController
        from ..pcm import EnduranceModel
        import numpy as np

        controller = CompressedPCMController(
            config=self.config,
            n_lines=8,
            endurance_model=EnduranceModel(mean=10**7),
            rng=np.random.default_rng(0),
        )
        return controller.pipeline.describe()


def get_system(name: str) -> SystemSpec:
    """Look a spec up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def system_names(tag: str | None = None) -> tuple[str, ...]:
    """Registered names, optionally filtered by tag, in table order."""
    return tuple(
        name for name, spec in _REGISTRY.items()
        if tag is None or tag in spec.tags
    )


def resolve_config(system: str, **overrides) -> SystemConfig:
    """The named system's config, with knob overrides applied.

    The one way a system name becomes a config: ``build_simulator``,
    the CLI, the fuzz driver and the benchmarks all call it.
    """
    config = get_system(system).config
    return config.with_overrides(**overrides) if overrides else config


# -- the registry table ----------------------------------------------------


def _spec(name, description, base, tags, **overrides) -> SystemSpec:
    """One row: a paper-system factory ``base`` plus knob ``overrides``."""
    return SystemSpec(name, description, base(name=name, **overrides), tags)


_SPECS = (
    _spec("baseline", "DW + Start-Gap + ECP-6, no compression (Table II baseline)",
          _config.baseline, ("paper",)),
    _spec("comp", "naive compression: window sliding only (Section V-A.1)",
          _config.comp, ("paper",)),
    _spec("comp_w", "compression + intra-line wear-leveling (Section V-A.2)",
          _config.comp_w, ("paper",)),
    _spec("comp_wf", "the full design: + dead-block revival (Section V-A.3)",
          _config.comp_wf, ("paper",)),
    # Ablation variants: the full system with exactly one knob changed.
    _spec("comp_wf_no_heuristic", "Comp+WF without the Figure 8 flip-control heuristic",
          _config.comp_wf, ("ablation",), use_heuristic=False),
    _spec("comp_wf_safer32", "Comp+WF over SAFER-32 instead of ECP-6 (Section III-A.4)",
          _config.comp_wf, ("ablation",), correction_scheme="safer32"),
    _spec("comp_wf_aegis", "Comp+WF over Aegis 17x31 instead of ECP-6 (Section III-A.4)",
          _config.comp_wf, ("ablation",), correction_scheme="aegis17x31"),
    # Extensions beyond the paper's configuration.
    _spec("comp_wf_freep", "Comp+WF + FREE-p remap spares (5% spare lines)",
          _config.comp_wf, ("extension",), spare_line_fraction=0.05),
    _spec("comp_wf_regions", "Comp+WF with 4-region scalable Start-Gap",
          _config.comp_wf, ("extension",), start_gap_regions=4),
    _spec("comp_wf_hybrid", "Comp+WF behind a 16-line content-aware DRAM tier (CARAM)",
          _config.comp_wf, ("extension",), tier_lines=16),
    # Energy-aware encoding family (repro.energy): WIRE-style inversion
    # and restricted coset coding composed with the paper's systems.
    # The reference model does not model encoding, so these stay out
    # of the differential fuzz oracle's default set (repro.validate.
    # fuzz).  The "energy" tag, after the paper's four, is the energy
    # sweep's default set (repro.energy.pareto).
    _spec("baseline_wire", "baseline + WIRE energy-weighted inversion coding",
          _config.baseline, ("extension", "energy"), encoding="wire"),
    _spec("comp_wf_wire", "Comp+WF + WIRE energy-weighted inversion coding",
          _config.comp_wf, ("extension", "energy"), encoding="wire"),
    _spec("comp_coset", "Comp + restricted coset coding through compression slack",
          _config.comp, ("extension", "energy"), encoding="coset"),
    _spec("comp_wf_coset", "Comp+WF + restricted coset coding through compression slack",
          _config.comp_wf, ("extension", "energy"), encoding="coset"),
)

_REGISTRY: dict[str, SystemSpec] = {spec.name: spec for spec in _SPECS}
