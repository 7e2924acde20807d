"""Tests for the declarative system registry."""

import dataclasses

import pytest

from repro.core import EVALUATED_SYSTEMS, SystemConfig, make_config
from repro.engine import (
    PAPER_SYSTEMS,
    SystemSpec,
    get_system,
    list_systems,
    register_system,
    resolve_config,
    system_names,
)
from repro.engine.registry import _REGISTRY


def test_paper_systems_registered_in_paper_order():
    assert PAPER_SYSTEMS == EVALUATED_SYSTEMS
    assert system_names(tag="paper") == PAPER_SYSTEMS


def test_specs_match_the_legacy_factories():
    for name in EVALUATED_SYSTEMS:
        assert get_system(name).config == make_config(name)


def test_unknown_system_rejected_with_choices():
    with pytest.raises(ValueError, match="unknown system"):
        get_system("comp_wxyz")


def test_spec_name_must_match_config_name():
    with pytest.raises(ValueError, match="!= config name"):
        SystemSpec(name="a", description="", config=make_config("comp"))


def test_serialization_round_trip():
    for spec in list_systems():
        rebuilt = SystemSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert isinstance(rebuilt.config, SystemConfig)


def test_resolve_config_handles_names_configs_and_overrides():
    assert resolve_config("comp_wf") == make_config("comp_wf")
    assert resolve_config("comp_wf", threshold1=8).threshold1 == 8
    explicit = make_config("comp_w", start_gap_psi=50)
    assert resolve_config(explicit) is explicit
    assert resolve_config(explicit, start_gap_psi=25).start_gap_psi == 25


def test_ablation_variants_differ_in_exactly_the_advertised_knob():
    full = get_system("comp_wf").config
    assert get_system("comp_wf_no_heuristic").config == full.with_overrides(
        name="comp_wf_no_heuristic", use_heuristic=False
    )
    assert get_system("comp_wf_safer32").config.correction_scheme == "safer32"
    assert get_system("comp_wf_aegis").config.correction_scheme == "aegis17x31"
    assert get_system("comp_wf_freep").config.spare_line_fraction == 0.05
    assert get_system("comp_wf_regions").config.start_gap_regions == 4


def test_duplicate_registration_needs_replace():
    spec = get_system("comp")
    with pytest.raises(ValueError, match="already registered"):
        register_system(spec)
    assert register_system(spec, replace=True) is spec
    assert _REGISTRY["comp"] is spec


def test_stage_summary_reflects_the_composition():
    baseline = get_system("baseline").stage_summary()
    assert any("compress: off" in line for line in baseline)
    full = get_system("comp_wf").stage_summary()
    assert any("fig8 heuristic" in line for line in full)
    assert any("intra-line WL" in line for line in full)
    assert any("revival at gap-move checkpoints" in line for line in full)
    assert any("ecp6" in line for line in full)
    safer = get_system("comp_wf_safer32").stage_summary()
    assert any("safer32" in line for line in safer)


def test_no_two_specs_differ_only_in_wl_backend():
    """The wear-leveling backend is a config axis, not a registry
    cross-product: pick it with ``configured(wl_backend=...)``."""
    backends = {}
    for spec in list_systems():
        knobs = dataclasses.asdict(spec.config)
        del knobs["name"]
        backend = knobs.pop("wl_backend")
        backends.setdefault(repr(sorted(knobs.items())), set()).add(backend)
    assert all(len(found) == 1 for found in backends.values())
