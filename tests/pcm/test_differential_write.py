"""The bank's differential write: only differing cells are programmed,
and each programmed cell is a SET (to 1) or a RESET (to 0) pulse."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm import EnduranceModel, PCMBankArray, bytes_to_bits


def bank_holding(old: bytes) -> PCMBankArray:
    """A wear-free one-row bank that currently stores ``old``."""
    bank = PCMBankArray(1, EnduranceModel(mean=1e6, cov=0.0), np.random.default_rng(0))
    bank.write_bytes(0, old)
    bank.counts[:] = 0
    return bank


def differential_write(old: bytes, new: bytes) -> tuple[int, int, int]:
    """``(programmed, set, reset)`` for writing ``new`` over ``old``,
    checked equal on the per-row write and the batched wave."""
    outcome = bank_holding(old).write_bytes(0, new)
    programmed, sets, _ = bank_holding(old).write_rows(
        np.array([0]), bytes_to_bits(new)[None, :]
    )
    assert (int(programmed[0]), int(sets[0])) == (
        outcome.programmed_flips, outcome.set_flips
    )
    return outcome.programmed_flips, outcome.set_flips, outcome.reset_flips


def test_identical_data_needs_no_programming():
    data = bytes(range(64))
    assert differential_write(data, data) == (0, 0, 0)


def test_flip_counts_and_directions():
    old = bytes(64)
    new = b"\x0f" + bytes(63)
    assert differential_write(old, new) == (4, 4, 0)
    assert differential_write(new, old) == (4, 0, 4)


def test_flip_positions_sorted():
    old = bytes(64)
    new = bytearray(64)
    new[10] = 0x01  # bit 80
    new[2] = 0x80  # bit 23
    bank = bank_holding(old)
    bank.write_bytes(0, bytes(new))
    assert np.flatnonzero(bank.counts[0]).tolist() == [23, 80]


def test_full_inversion_programs_everything():
    assert differential_write(bytes(64), b"\xff" * 64) == (512, 512, 0)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=64, max_size=64), st.binary(min_size=64, max_size=64))
def test_flips_symmetric_and_bounded(a, b):
    programmed, sets, resets = differential_write(a, b)
    back, back_sets, back_resets = differential_write(b, a)
    assert programmed == back == sum((x ^ y).bit_count() for x, y in zip(a, b))
    assert 0 <= programmed <= 512
    assert sets + resets == programmed
    # Every SET one way is a RESET the other way.
    assert (sets, resets) == (back_resets, back_sets)
