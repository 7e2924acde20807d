"""Unit tests for system configurations."""

import pytest

from repro.core import (
    EVALUATED_SYSTEMS,
    SystemConfig,
    baseline,
    comp,
    comp_w,
    comp_wf,
)
from repro.engine import resolve_config

FACTORIES = (baseline, comp, comp_w, comp_wf)


def test_four_evaluated_systems():
    assert EVALUATED_SYSTEMS == ("baseline", "comp", "comp_w", "comp_wf")
    for name, factory in zip(EVALUATED_SYSTEMS, FACTORIES):
        assert factory().name == name


def test_feature_matrix_matches_section4():
    base = baseline()
    assert not base.use_compression
    assert not base.use_intra_wear_leveling
    assert not base.use_dead_block_revival

    naive = comp()
    assert naive.use_compression
    assert not naive.use_intra_wear_leveling
    assert not naive.use_dead_block_revival

    with_wl = comp_w()
    assert with_wl.use_intra_wear_leveling
    assert not with_wl.use_dead_block_revival

    full = comp_wf()
    assert full.use_compression
    assert full.use_intra_wear_leveling
    assert full.use_dead_block_revival
    assert full.use_heuristic


def test_shared_substrate_defaults():
    for factory in FACTORIES:
        config = factory()
        assert config.correction_scheme == "ecp6"
        assert config.start_gap_psi == 100
        assert config.n_banks == 8  # Table II


def test_overrides():
    config = comp_wf(threshold1=8, correction_scheme="safer32")
    assert config.threshold1 == 8
    assert config.correction_scheme == "safer32"
    tweaked = config.with_overrides(start_gap_psi=10)
    assert tweaked.start_gap_psi == 10
    assert tweaked.threshold1 == 8


def test_unknown_system():
    with pytest.raises(ValueError, match="unknown system"):
        resolve_config("comp_x")


def test_validation():
    with pytest.raises(ValueError):
        comp_wf(threshold1=0)
    with pytest.raises(ValueError):
        comp_wf(threshold2=65)
    with pytest.raises(ValueError):
        comp_wf(start_gap_psi=0)
    with pytest.raises(ValueError):
        comp_wf(intra_counter_limit=0)
    with pytest.raises(ValueError, match="compression-window features"):
        SystemConfig(name="bad", use_compression=False)
    with pytest.raises(ValueError, match="n_banks"):
        SystemConfig(name="x", n_banks=0)


def test_cell_type_knob():
    """The paper's substrate is SLC; footnote 1's MLC is one knob away."""
    for factory in FACTORIES:
        assert factory().cell_type == "slc"
    assert comp_wf(cell_type="mlc").cell_type == "mlc"
    with pytest.raises(ValueError, match="cell_type"):
        comp_wf(cell_type="tlc")



def test_cell_type_round_trips_through_json():
    """Fuzz repro recipes carry the config as JSON (repro.validate)."""
    import dataclasses
    import json

    config = comp_wf(cell_type="mlc", n_banks=4)
    payload = json.loads(json.dumps(dataclasses.asdict(config)))
    assert SystemConfig(**payload) == config
