"""Declarative system registry: named, serializable ``SystemSpec``s.

The paper's evaluated systems (Baseline / Comp / Comp+W / Comp+WF) and
the repo's ablation variants used to be wired ad hoc -- a factory in
``repro.core.config``, override kwargs scattered across
``lifetime/systems.py``, the CLI, and 30+ benchmark modules.  The
registry replaces that with one table of :class:`SystemSpec` entries
consumed uniformly everywhere:

    >>> from repro.engine import get_system, system_names
    >>> get_system("comp_wf").config.use_dead_block_revival
    True
    >>> "comp_wf_safer32" in system_names()
    True

Specs are plain frozen dataclasses wrapping a
:class:`~repro.core.config.SystemConfig`; ``to_dict``/``from_dict``
round-trip them through JSON for sweep manifests and result metadata.
``python -m repro systems`` prints the table with each spec's stage
composition.
"""

from __future__ import annotations

import dataclasses
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

    def configured(self, **overrides) -> SystemConfig:
        """The spec's config, with optional knob overrides applied."""
        if not overrides:
            return self.config
        return self.config.with_overrides(**overrides)

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

    def to_dict(self) -> dict:
        """JSON-serializable form (sweep manifests, result metadata)."""
        return {
            "name": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "config": dataclasses.asdict(self.config),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemSpec":
        """Rebuild a spec serialized by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            description=payload["description"],
            config=SystemConfig(**payload["config"]),
            tags=tuple(payload.get("tags", ())),
        )


_REGISTRY: dict[str, SystemSpec] = {}


def register_system(spec: SystemSpec, replace: bool = False) -> SystemSpec:
    """Add a spec to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"system {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_system(name: str) -> SystemSpec:
    """Look a spec up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def system_names(tag: str | None = None) -> tuple[str, ...]:
    """Registered names, optionally filtered by tag, in insertion order."""
    return tuple(
        name for name, spec in _REGISTRY.items()
        if tag is None or tag in spec.tags
    )


def list_systems(tag: str | None = None) -> tuple[SystemSpec, ...]:
    """Registered specs, optionally filtered by tag, in insertion order."""
    return tuple(
        spec for spec in _REGISTRY.values() if tag is None or tag in spec.tags
    )


def resolve_config(system: str | SystemConfig, **overrides) -> SystemConfig:
    """Normalize a system name or config into a ready config.

    This is the single entry point ``build_simulator``, the CLI, and
    the benchmarks funnel through: names go through the registry,
    explicit configs pass straight through (with overrides applied).
    """
    if isinstance(system, SystemConfig):
        return system.with_overrides(**overrides) if overrides else system
    return get_system(system).configured(**overrides)


# -- the registry table ----------------------------------------------------

#: The four evaluated systems in the paper's presentation order (the
#: registry's name for :data:`repro.core.config.EVALUATED_SYSTEMS`).
PAPER_SYSTEMS = _config.EVALUATED_SYSTEMS

register_system(SystemSpec(
    name="baseline",
    description="DW + Start-Gap + ECP-6, no compression (Table II baseline)",
    config=_config.baseline(),
    tags=("paper",),
))
register_system(SystemSpec(
    name="comp",
    description="naive compression: window sliding only (Section V-A.1)",
    config=_config.comp(),
    tags=("paper",),
))
register_system(SystemSpec(
    name="comp_w",
    description="compression + intra-line wear-leveling (Section V-A.2)",
    config=_config.comp_w(),
    tags=("paper",),
))
register_system(SystemSpec(
    name="comp_wf",
    description="the full design: + dead-block revival (Section V-A.3)",
    config=_config.comp_wf(),
    tags=("paper",),
))

# Ablation variants: the full system with exactly one knob changed.
register_system(SystemSpec(
    name="comp_wf_no_heuristic",
    description="Comp+WF without the Figure 8 flip-control heuristic",
    config=_config.comp_wf(name="comp_wf_no_heuristic", use_heuristic=False),
    tags=("ablation",),
))
register_system(SystemSpec(
    name="comp_wf_safer32",
    description="Comp+WF over SAFER-32 instead of ECP-6 (Section III-A.4)",
    config=_config.comp_wf(name="comp_wf_safer32", correction_scheme="safer32"),
    tags=("ablation",),
))
register_system(SystemSpec(
    name="comp_wf_aegis",
    description="Comp+WF over Aegis 17x31 instead of ECP-6 (Section III-A.4)",
    config=_config.comp_wf(name="comp_wf_aegis", correction_scheme="aegis17x31"),
    tags=("ablation",),
))

# Extensions beyond the paper's configuration.
register_system(SystemSpec(
    name="comp_wf_freep",
    description="Comp+WF + FREE-p remap spares (5% spare lines)",
    config=_config.comp_wf(name="comp_wf_freep", spare_line_fraction=0.05),
    tags=("extension",),
))
register_system(SystemSpec(
    name="comp_wf_regions",
    description="Comp+WF with 4-region scalable Start-Gap",
    config=_config.comp_wf(name="comp_wf_regions", start_gap_regions=4),
    tags=("extension",),
))
register_system(SystemSpec(
    name="comp_wf_hybrid",
    description="Comp+WF behind a 16-line content-aware DRAM tier (CARAM)",
    config=_config.comp_wf(name="comp_wf_hybrid", tier_lines=16),
    tags=("extension",),
))

# Energy-aware encoding family (repro.energy): WIRE-style inversion and
# restricted coset coding composed with the paper's systems.  Encoded
# systems are excluded from the differential fuzz oracle's default set
# (repro.validate.fuzz) -- the reference model does not model encoding.
register_system(SystemSpec(
    name="baseline_wire",
    description="baseline + WIRE energy-weighted inversion coding",
    config=_config.baseline(name="baseline_wire", encoding="wire"),
    tags=("extension", "energy"),
))
register_system(SystemSpec(
    name="comp_wf_wire",
    description="Comp+WF + WIRE energy-weighted inversion coding",
    config=_config.comp_wf(name="comp_wf_wire", encoding="wire"),
    tags=("extension", "energy"),
))
register_system(SystemSpec(
    name="comp_coset",
    description="Comp + restricted coset coding through compression slack",
    config=_config.comp(name="comp_coset", encoding="coset"),
    tags=("extension", "energy"),
))
register_system(SystemSpec(
    name="comp_wf_coset",
    description="Comp+WF + restricted coset coding through compression slack",
    config=_config.comp_wf(name="comp_wf_coset", encoding="coset"),
    tags=("extension", "energy"),
))
