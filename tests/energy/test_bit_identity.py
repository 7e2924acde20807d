"""Encoding-off and identity-parameter bit-identity safety rails.

Mirrors the ``tier_lines=0`` rail: a feature that is configured off --
or configured on with parameters that make it a mathematical no-op --
must leave every externally observable bit unchanged.  Two rails:

* ``encoding="none"`` builds no encoder at all; the golden-trace suite
  (``tests/golden``) already pins those digests.  Here we pin the
  sharper claim: an encoder *attached* but restricted to the identity
  transform replays the golden fixture digest-for-digest.
* The lockstep oracle does not model encoding, so a fuzz-style
  validation run with an identity-parameter encoder attached can only
  stay divergence-free if the encoder is a true pass-through on every
  path (windowed writes, rescues, deaths, reads).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import EVALUATED_SYSTEMS, CompressedPCMController
from repro.energy import WireEncoder
from repro.engine.registry import resolve_config
from repro.pcm import EnduranceModel
from repro.traces import SyntheticWorkload, get_profile
from repro.validate import ValidatingController

from tests.golden.generate_golden import result_row

FIXTURE = Path(__file__).parent.parent / "golden" / "golden_trace.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_identity_encoder_replays_the_golden_trace(golden, system):
    trace = golden["trace"]
    expected = golden["systems"][system]
    controller = CompressedPCMController(
        config=resolve_config(system, intra_counter_limit=64),
        n_lines=trace["n_lines"],
        endurance_model=EnduranceModel(
            mean=trace["endurance_mean"], cov=trace["endurance_cov"]
        ),
        rng=np.random.default_rng(trace["seed"] + 1),
    )
    # Attach a degenerate encoder: identity is its only coset, so the
    # encode/decode path runs on every write yet must change nothing.
    controller.engine.encoder = WireEncoder(
        len(controller.engine.metadata), transforms=("identity",)
    )
    workload = SyntheticWorkload(
        get_profile(trace["workload"]), n_lines=trace["n_lines"],
        seed=trace["seed"],
    )
    digest = hashlib.sha256()
    for write in workload.iter_writes(trace["writes"]):
        row = result_row(controller.write(write.line, write.data))
        digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == expected["write_results_sha256"]
    assert controller.dead_fraction == expected["dead_fraction"]
    stats = controller.stats
    assert stats.encoding_flag_set_flips == 0
    assert stats.encoding_flag_reset_flips == 0
    assert stats.encoded_words == 0


def test_identity_encoder_survives_lockstep_validation():
    config = resolve_config("comp_wf", correction_scheme="ecp6", n_banks=4)
    validating = ValidatingController(config, 16, endurance_mean=24.0, seed=6)
    validating.fast.engine.encoder = WireEncoder(
        len(validating.fast.engine.metadata), transforms=("identity",)
    )
    rng = np.random.default_rng(6)
    for step in range(400):
        logical = int(rng.integers(16))
        kind = int(rng.integers(3))
        if kind == 0:
            data = bytes(64)
        elif kind == 1:
            data = bytes(rng.integers(256, size=8, dtype=np.uint8)) * 8
        else:
            data = bytes(rng.integers(256, size=64, dtype=np.uint8))
        validating.write(logical, data)  # raises DivergenceError on any drift


def test_disabled_encoding_builds_no_encoder():
    controller = CompressedPCMController(
        config=resolve_config("comp_wf"),
        n_lines=8,
        endurance_model=EnduranceModel(mean=100.0),
        rng=np.random.default_rng(0),
    )
    assert controller.engine.encoder is None


@pytest.mark.parametrize("system", ["baseline_wire", "comp_wf_wire",
                                    "comp_coset", "comp_wf_coset"])
def test_encoded_systems_read_back_exactly(system):
    """Encoding changes stored bits, never read-back data."""
    config = resolve_config(system, correction_scheme="ecp6", n_banks=4)
    controller = CompressedPCMController(
        config, 16, EnduranceModel(mean=10**6), np.random.default_rng(1),
    )
    rng = np.random.default_rng(2)
    written = {}
    for step in range(150):
        logical = int(rng.integers(16))
        data = (
            bytes(rng.integers(256, size=8, dtype=np.uint8)) * 8
            if step % 2
            else bytes(rng.integers(256, size=64, dtype=np.uint8))
        )
        controller.write(logical, data)
        written[logical] = data
    for logical, data in written.items():
        assert controller.read(logical) == data
