"""Tests for the declarative system registry."""

import dataclasses

import pytest

from repro.core import EVALUATED_SYSTEMS, baseline, comp, comp_w, comp_wf
from repro.engine import SystemSpec, get_system, resolve_config, system_names
from repro.engine.registry import _SPECS

#: Every registered system that is not one of the paper's four, as the
#: paper system it extends plus the knobs it changes.
TWINS = {
    "comp_wf_no_heuristic": ("comp_wf", {"use_heuristic": False}),
    "comp_wf_safer32": ("comp_wf", {"correction_scheme": "safer32"}),
    "comp_wf_aegis": ("comp_wf", {"correction_scheme": "aegis17x31"}),
    "comp_wf_freep": ("comp_wf", {"spare_line_fraction": 0.05}),
    "comp_wf_regions": ("comp_wf", {"start_gap_regions": 4}),
    "comp_wf_hybrid": ("comp_wf", {"tier_lines": 16}),
    "baseline_wire": ("baseline", {"encoding": "wire"}),
    "comp_wf_wire": ("comp_wf", {"encoding": "wire"}),
    "comp_coset": ("comp", {"encoding": "coset"}),
    "comp_wf_coset": ("comp_wf", {"encoding": "coset"}),
}


def test_paper_systems_registered_in_paper_order():
    assert system_names(tag="paper") == EVALUATED_SYSTEMS


def test_specs_match_the_legacy_factories():
    factories = (baseline, comp, comp_w, comp_wf)
    for name, factory in zip(EVALUATED_SYSTEMS, factories):
        assert resolve_config(name) == factory()


def test_unknown_system_rejected_with_choices():
    with pytest.raises(ValueError, match="unknown system"):
        get_system("comp_wxyz")
    with pytest.raises(ValueError, match="unknown system"):
        resolve_config("comp_wxyz")


def test_spec_name_must_match_config_name():
    with pytest.raises(ValueError, match="!= config name"):
        SystemSpec(name="a", description="", config=comp())


def test_resolve_config_applies_overrides_to_the_named_config():
    assert resolve_config("comp_wf") is get_system("comp_wf").config
    tuned = resolve_config("comp_wf", threshold1=8, start_gap_psi=25)
    assert tuned == comp_wf(threshold1=8, start_gap_psi=25)
    # A name is the only way in: a config is not looked up as one.
    with pytest.raises(ValueError, match="unknown system"):
        resolve_config(comp_wf())


def test_ablation_variants_differ_in_exactly_the_advertised_knob():
    """Each twin is its paper system plus the advertised overrides."""
    assert set(system_names()) == set(EVALUATED_SYSTEMS) | set(TWINS)
    assert len(_SPECS) == len(system_names())  # no name registered twice
    for name, (base, overrides) in TWINS.items():
        assert resolve_config(name) == resolve_config(
            base, name=name, **overrides
        ), name


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
    cross-product: pick it with ``resolve_config(name, wl_backend=...)``."""
    backends = {}
    for name in system_names():
        knobs = dataclasses.asdict(resolve_config(name))
        del knobs["name"]
        backend = knobs.pop("wl_backend")
        backends.setdefault(repr(sorted(knobs.items())), set()).add(backend)
    assert all(len(found) == 1 for found in backends.values())
