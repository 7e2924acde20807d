"""Property tests for the WIRE / restricted-coset line encoders.

Flip-N-Write (Cho and Lee, MICRO 2009) is WIRE with SET and RESET
priced alike: :func:`flip_n_write` below restates its per-word rule
from scratch, and the unit-priced ``WireEncoder`` inputs are checked
against it.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LINE_BYTES
from repro.energy import (
    CosetEncoder,
    LineEncoder,
    WireEncoder,
    make_encoder,
)
from repro.pcm import PCMEnergy, bits_to_bytes, bytes_to_bits

#: Every cell program costs the same: the WIRE choice minimizes flips.
UNIT_PRICES = PCMEnergy(set_pj_per_bit=1.0, reset_pj_per_bit=1.0)

#: Flip-N-Write as an encoder input: WIRE at unit prices.
UNIT_WIRE = pytest.param(partial(WireEncoder, energy=UNIT_PRICES), id="unit_wire")


def random_bits(rng):
    return rng.integers(0, 2, size=LINE_BYTES * 8, dtype=np.uint8)


def flip_n_write(stored, flags, logical, word_bits=32):
    """Flip-N-Write's per-word rule, written independently of the encoder.

    Each word is stored as its data or its complement (flag 1).  The
    cost of a choice is the cells it programs plus one if the word's
    flag cell changes; the word is inverted only on a strict gain, so
    ties keep it as data.  Returns ``(cells, flags, flips)``.
    """
    cells, new_flags, flips = [], [], 0
    for word, (old, flag) in enumerate(zip(stored.reshape(-1, word_bits), flags)):
        data = logical[word * word_bits:(word + 1) * word_bits]
        direct = int(np.count_nonzero(old != data)) + (flag != 0)
        inverted = int(np.count_nonzero(old != 1 - data)) + (flag != 1)
        invert = inverted < direct
        cells.append(1 - data if invert else data)
        new_flags.append(int(invert))
        flips += min(direct, inverted)
    return np.concatenate(cells), np.array(new_flags, dtype=np.uint8), flips


def encoded_flips(stored, outcome):
    """Cells plus flag cells a write programmed."""
    return (
        int(np.count_nonzero(outcome.target != stored))
        + outcome.flag_set_flips
        + outcome.flag_reset_flips
    )


class TestConstruction:
    def test_make_encoder_dispatch(self):
        assert make_encoder("none", 8) is None
        assert isinstance(make_encoder("wire", 8), WireEncoder)
        assert isinstance(make_encoder("coset", 8), CosetEncoder)
        with pytest.raises(ValueError, match="unknown encoding"):
            make_encoder("gray", 8)

    def test_transform_zero_must_be_identity(self):
        with pytest.raises(ValueError, match="identity"):
            LineEncoder(4, transforms=("invert", "identity"))

    def test_word_size_must_divide_the_line(self):
        with pytest.raises(ValueError, match="word size"):
            LineEncoder(4, word_bits=33)

    def test_unit_prices_reject_a_bad_word_size(self):
        # Flip-N-Write's word-shape checks, on the encoder that runs it:
        # an empty word, a word that does not tile the line, and a word
        # that tiles it but is not a whole number of bytes.
        for word_bits in (0, 100, 4):
            with pytest.raises(ValueError, match="word size"):
                WireEncoder(1, word_bits=word_bits, energy=UNIT_PRICES)

    def test_selector_overhead(self):
        assert WireEncoder(4).overhead_bits_per_line == 16  # 16 words x 1b
        assert CosetEncoder(4).overhead_bits_per_line == 32  # 16 words x 2b
        identity = WireEncoder(4, transforms=("identity",))
        assert identity.overhead_bits_per_line == 0


@pytest.mark.parametrize("encoder_cls", [WireEncoder, CosetEncoder, UNIT_WIRE])
class TestInvolutionProperties:
    def test_full_line_round_trip(self, encoder_cls):
        rng = np.random.default_rng(0)
        encoder = encoder_cls(4)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        for step in range(50):
            logical = random_bits(rng)
            outcome = encoder.encode(
                2, stored, logical, 0, LINE_BYTES, compressed=True
            )
            assert np.array_equal(encoder.decode(2, outcome.target), logical)
            stored = outcome.target

    def test_windowed_write_leaves_out_of_window_cells_stored(self, encoder_cls):
        # The involution safety property: words not fully inside the
        # window re-encode to exactly their stored cells, so the
        # program stage's update mask masks nothing that changed.
        rng = np.random.default_rng(1)
        encoder = encoder_cls(4)
        stored = random_bits(rng)
        encoder.flags[1] = rng.integers(
            0, len(encoder.transforms), size=encoder.n_words, dtype=np.uint8
        )
        logical = encoder.decode(1, stored)
        for start, size in [(5, 11), (0, 32), (40, 24), (63, 1)]:
            target_logical = logical.copy()
            window = slice(start * 8, (start + size) * 8)
            target_logical[window] = rng.integers(
                0, 2, size=size * 8, dtype=np.uint8
            )
            outcome = encoder.encode(
                1, stored, target_logical, start, size, compressed=True
            )
            outside = np.ones(LINE_BYTES * 8, dtype=bool)
            outside[window] = False
            assert np.array_equal(
                outcome.target[outside], stored[outside]
            ), f"window ({start}, {size}) leaked outside itself"
            # Undo the state change for the next window.
            logical = encoder.decode(1, outcome.target)
            stored = outcome.target

    def test_identity_parameters_are_a_pure_pass_through(self, encoder_cls):
        rng = np.random.default_rng(2)
        encoder = encoder_cls(4, transforms=("identity",))
        stored = random_bits(rng)
        logical = random_bits(rng)
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert np.array_equal(outcome.target, logical)
        assert outcome.flag_set_flips == 0
        assert outcome.flag_reset_flips == 0
        assert outcome.encoded_words == 0


class TestEnergyObjective:
    def _write_energy(self, stored, target, energy):
        sets = int(((target == 1) & (stored == 0)).sum())
        resets = int(((target == 0) & (stored == 1)).sum())
        return energy.write_energy_pj(sets, resets)

    @pytest.mark.parametrize("encoder_cls", [WireEncoder, CosetEncoder, UNIT_WIRE])
    def test_never_costs_more_than_storing_plain(self, encoder_cls):
        # Identity is always a candidate coset, so the chosen image
        # (data cells + flag cells) can never exceed the plain image's
        # array cost against the same stored state.  At unit prices the
        # cost is the flip count: Flip-N-Write never programs more
        # cells than a plain differential write.
        rng = np.random.default_rng(3)
        encoder = encoder_cls(2)
        energy = encoder.energy
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        for _ in range(100):
            logical = random_bits(rng)
            plain_cost = self._write_energy(stored, logical, energy)
            outcome = encoder.encode(
                0, stored, logical, 0, LINE_BYTES, compressed=True
            )
            encoded_cost = self._write_energy(stored, outcome.target, energy)
            encoded_cost += energy.write_energy_pj(
                outcome.flag_set_flips, outcome.flag_reset_flips
            )
            assert encoded_cost <= plain_cost + 1e-9
            stored = outcome.target

    def test_wire_inverts_an_expensive_word(self):
        # All-zero stored cells, all-ones logical word: storing plain
        # costs 32 SET pulses, storing inverted costs 1 flag SET.
        encoder = WireEncoder(1)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical[: 32] = 1
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert encoder.flags[0, 0] == 1  # word 0 stored complemented
        assert outcome.target[:32].sum() == 0  # no data SET pulses
        assert outcome.encoded_words == 1

    def test_restriction_forces_identity_on_uncompressed_writes(self):
        encoder = CosetEncoder(1)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.ones(LINE_BYTES * 8, dtype=np.uint8)
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=False
        )
        assert not encoder.flags[0].any()
        assert np.array_equal(outcome.target, logical)
        assert outcome.encoded_words == 0
        # The same write compressed *does* spend slack on selectors.
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert encoder.flags[0].all()

    def test_ties_break_toward_identity(self):
        # A logical word equal to its stored cells costs 0 either way
        # it is already stored; argmin's first-minimum rule must keep
        # the identity selector (bit-identity rail for quiet words).
        encoder = WireEncoder(1)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        encoder.encode(0, stored, logical, 0, LINE_BYTES, compressed=True)
        assert not encoder.flags[0].any()

    def test_unit_prices_invert_only_on_a_strict_gain(self):
        # With one flag cell on an even-width word the two costs differ
        # in parity, so the closest cases to a tie are one flip apart.
        # Word 0 differs from its stored cells in 16 of 32: inverting
        # programs 16 cells plus its flag, no gain, so it stays data.
        # Word 1 was stored inverted and also differs in 16: keeping it
        # inverted programs 16 cells, switching to data 16 plus the
        # flag, so it stays inverted.
        encoder = WireEncoder(1, energy=UNIT_PRICES)
        encoder.flags[0, 1] = 1
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical[:16] = 1
        logical[32:64] = 1
        logical[32:48] = 0
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert encoder.flags[0, :2].tolist() == [0, 1]
        assert encoded_flips(stored, outcome) == 32

    def test_unit_prices_count_flag_flips(self):
        # A mostly-ones word over zero cells: inverted, it programs one
        # data cell and one flag cell.
        encoder = WireEncoder(1, word_bits=8, energy=UNIT_PRICES)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical[:7] = 1
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert encoder.flags[0, 0] == 1
        assert (outcome.flag_set_flips, outcome.flag_reset_flips) == (1, 0)
        assert encoded_flips(stored, outcome) == 2
        assert np.array_equal(encoder.decode(0, outcome.target), logical)

    def test_unit_prices_hold_the_half_word_bound(self):
        # The bound's worst case: every cell of every word differs, so
        # each word is inverted and programs only its flag cell.
        encoder = WireEncoder(1, energy=UNIT_PRICES)
        stored = np.zeros(LINE_BYTES * 8, dtype=np.uint8)
        logical = np.ones(LINE_BYTES * 8, dtype=np.uint8)
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        n_words = encoder.n_words
        assert encoded_flips(stored, outcome) <= n_words * (32 // 2 + 1)
        assert encoded_flips(stored, outcome) == n_words
        assert np.array_equal(encoder.decode(0, outcome.target), logical)

    @settings(max_examples=100, deadline=None)
    @given(
        st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES),
        st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES),
        st.sampled_from([8, 16, 32, 64]),
        st.integers(0, 2**64 - 1),
    )
    def test_unit_prices_match_flip_n_write(self, old, new, word_bits, flag_bits):
        n_words = LINE_BYTES * 8 // word_bits
        encoder = WireEncoder(1, word_bits=word_bits, energy=UNIT_PRICES)
        flags = np.array(
            [flag_bits >> word & 1 for word in range(n_words)], dtype=np.uint8
        )
        encoder.flags[0] = flags
        stored = bytes_to_bits(old)
        logical = bytes_to_bits(new)
        cells, new_flags, flips = flip_n_write(stored, flags, logical, word_bits)
        outcome = encoder.encode(
            0, stored, logical, 0, LINE_BYTES, compressed=True
        )
        assert np.array_equal(outcome.target, cells)
        assert np.array_equal(encoder.flags[0], new_flags)
        assert encoded_flips(stored, outcome) == flips
        assert np.array_equal(encoder.decode(0, outcome.target), logical)
        # At most half of each word's cells, plus its flag.
        assert flips <= n_words * (word_bits // 2 + 1)


class TestBitHelpers:
    def test_bytes_bits_round_trip(self):
        data = bytes(range(64))
        assert bits_to_bytes(bytes_to_bits(data)) == data
