"""The packed encoder kernel against its frozen per-bit reference.

:class:`~tests.energy.reference_encoder.ReferenceEncoder` is the
original bit-cube formulation of the WIRE / restricted-coset choice.
The production kernel packs each word into one unsigned integer; these
properties drive both over the same random writes (stored and logical
lines, wrapping windows, the ``compressed`` flag, prior selectors) and
require every observable to agree: the target cell image, the selector
state, both flag-flip counts and ``encoded_words``.  Also pinned here:
the word sizes the packed kernel accepts, and that its derived tables
stay out of pickles while a restored encoder continues bit-identically.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LINE_BYTES, CompressedPCMController
from repro.core.window import place_bytes
from repro.energy import CosetEncoder, LineEncoder, WireEncoder
from repro.engine.registry import resolve_config
from repro.pcm import EnduranceModel, PCMEnergy
from repro.traces import SyntheticWorkload, get_profile

from tests.energy.reference_encoder import ReferenceEncoder

N_LINES = 3

lines = st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES).map(
    lambda data: np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little"
    )
)
writes = st.lists(
    st.tuples(
        st.integers(0, N_LINES - 1),      # physical line
        st.integers(0, LINE_BYTES - 1),   # window start (wraps past 63)
        st.integers(1, LINE_BYTES),       # window size
        st.booleans(),                    # compressed
        lines,                            # logical line
        st.floats(0, 1),                  # share of logical bits kept
    ),
    min_size=1,
    max_size=12,
)


def _pair(encoder_cls, word_bits, stored, prior_flags):
    encoder = encoder_cls(N_LINES, word_bits=word_bits)
    encoder.flags[:] = prior_flags % len(encoder.transforms)
    return encoder, ReferenceEncoder(encoder), stored


def _assert_same(outcome, expected, encoder, reference):
    np.testing.assert_array_equal(outcome.target, expected.target)
    assert outcome.target.dtype == expected.target.dtype
    assert outcome.flag_set_flips == expected.flag_set_flips
    assert outcome.flag_reset_flips == expected.flag_reset_flips
    assert outcome.encoded_words == expected.encoded_words
    np.testing.assert_array_equal(encoder.flags, reference.flags)


def _mix(stored_logical, logical, keep):
    """A logical line sharing about ``keep`` of its bits with the stored
    one: near-rewrites make energy ties, which random lines rarely do."""
    kept = np.arange(logical.size) < int(keep * logical.size)
    return np.where(kept, stored_logical, logical).astype(np.uint8)


@pytest.mark.parametrize("encoder_cls", [WireEncoder, CosetEncoder])
class TestPackedKernelMatchesReference:
    @given(
        word_bits=st.sampled_from([8, 16, 32, 64]),
        stored=st.lists(lines, min_size=N_LINES, max_size=N_LINES),
        prior_flags=st.lists(
            st.integers(0, 3), min_size=N_LINES * 64, max_size=N_LINES * 64
        ),
        ops=writes,
    )
    @settings(deadline=None, max_examples=150)
    def test_encode(self, encoder_cls, word_bits, stored, prior_flags, ops):
        encoder, reference, stored = _pair(
            encoder_cls, word_bits, list(stored),
            np.array(prior_flags, dtype=np.uint8)[
                : N_LINES * (512 // word_bits)
            ].reshape(N_LINES, -1),
        )
        for physical, start, size, compressed, logical, keep in ops:
            current = reference.decode(physical, stored[physical])
            np.testing.assert_array_equal(
                encoder.decode(physical, stored[physical]), current
            )
            logical = _mix(current, logical, keep)
            outcome = encoder.encode(
                physical, stored[physical], logical, start, size, compressed
            )
            expected = reference.encode(
                physical, stored[physical], logical, start, size, compressed
            )
            _assert_same(outcome, expected, encoder, reference)
            stored[physical] = outcome.target

    @given(
        stored=st.lists(lines, min_size=N_LINES, max_size=N_LINES),
        prior_flags=st.lists(
            st.integers(0, 3), min_size=N_LINES * 16, max_size=N_LINES * 16
        ),
        ops=writes,
        payload_source=st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES),
    )
    @settings(deadline=None, max_examples=150)
    def test_encode_payload(
        self, encoder_cls, stored, prior_flags, ops, payload_source
    ):
        """The engine's fused decode + place + encode equals the
        reference's three separate steps."""
        encoder, reference, stored = _pair(
            encoder_cls, 32, list(stored),
            np.array(prior_flags, dtype=np.uint8).reshape(N_LINES, -1),
        )
        for physical, start, size, compressed, _, _ in ops:
            payload = payload_source[:size]
            outcome = encoder.encode_payload(
                physical, stored[physical], payload, start, size, compressed
            )
            logical = place_bytes(
                reference.decode(physical, stored[physical]), payload, start
            )
            expected = reference.encode(
                physical, stored[physical], logical, start, size, compressed
            )
            _assert_same(outcome, expected, encoder, reference)
            stored[physical] = outcome.target


def test_integer_and_float32_prices_choose_like_the_reference():
    """Prices that are not Python floats still cost words exactly as the
    per-bit formulation did (no narrowing to the uint8 count type)."""
    rng = np.random.default_rng(4)
    for energy in (
        PCMEnergy(set_pj_per_bit=20, reset_pj_per_bit=13),
        PCMEnergy(
            set_pj_per_bit=np.float32(19.2), reset_pj_per_bit=np.float32(13.5)
        ),
    ):
        encoder = CosetEncoder(1, energy=energy)
        reference = ReferenceEncoder(encoder)
        stored = np.zeros(512, dtype=np.uint8)
        for _ in range(200):
            logical = rng.integers(0, 2, 512, dtype=np.uint8)
            outcome = encoder.encode(0, stored, logical, 0, 64, True)
            expected = reference.encode(0, stored, logical, 0, 64, True)
            _assert_same(outcome, expected, encoder, reference)
            stored = outcome.target


class TestWordSize:
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_packed_word_sizes_are_accepted(self, word_bits):
        encoder = CosetEncoder(2, word_bits=word_bits)
        assert encoder.n_words == 512 // word_bits

    @pytest.mark.parametrize("word_bits", [1, 2, 4, 128, 256, 512])
    def test_other_divisors_of_the_line_are_rejected(self, word_bits):
        with pytest.raises(ValueError, match="word size must be one of"):
            LineEncoder(4, word_bits=word_bits)

    def test_default_is_32_bits(self):
        assert WireEncoder(1).word_bits == CosetEncoder(1).word_bits == 32


class TestCheckpointHygiene:
    def test_derived_tables_are_not_pickled(self):
        encoder = CosetEncoder(4)
        encoder.encode(1, np.zeros(512, np.uint8), np.ones(512, np.uint8),
                       3, 40, True)  # fills the window-word cache
        state = encoder.__getstate__()
        assert not set(LineEncoder._DERIVED) & set(state)
        clone = pickle.loads(pickle.dumps(encoder))
        for name in LineEncoder._DERIVED:
            if name == "_window_words":
                assert clone._window_words == {}
            else:
                np.testing.assert_array_equal(
                    getattr(clone, name), getattr(encoder, name)
                )
        np.testing.assert_array_equal(clone.flags, encoder.flags)

    def test_restored_coset_controller_continues_bit_identically(self):
        config = resolve_config("comp_wf", encoding="coset")
        controller = CompressedPCMController(
            config=config,
            n_lines=32,
            endurance_model=EnduranceModel(mean=60.0, cov=0.2),
            rng=np.random.default_rng(9),
        )
        writes = list(SyntheticWorkload(
            get_profile("mcf"), n_lines=32, seed=9
        ).iter_writes(1600))
        for write in writes[:800]:
            controller.write(write.line, write.data)
        restored = pickle.loads(pickle.dumps(controller))
        assert restored.engine.encoder._window_words == {}
        for write in writes[800:]:
            assert restored.write(write.line, write.data) == controller.write(
                write.line, write.data
            )
        assert restored.stats == controller.stats
        assert controller.stats.encoded_words > 0
        assert controller.dead_fraction > 0  # the run reached wear-out
        np.testing.assert_array_equal(
            restored.memory.stored, controller.memory.stored
        )
        np.testing.assert_array_equal(
            restored.engine.encoder.flags, controller.engine.encoder.flags
        )
        for line in range(32):
            assert restored.read(line) == controller.read(line)
