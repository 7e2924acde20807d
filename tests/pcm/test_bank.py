"""Unit tests for the vectorized bank array."""

import numpy as np
import pytest

from repro.core.window import place_bytes
from repro.pcm import EnduranceModel, PCMBankArray


@pytest.fixture()
def bank():
    rng = np.random.default_rng(42)
    model = EnduranceModel(mean=100, cov=0.0)
    return PCMBankArray(n_blocks=8, endurance_model=model, rng=rng)


def test_blocks_are_independent(bank):
    data = bytes(range(64))
    bank.write_bytes(3, data)
    assert bank.read_bytes(3) == data
    assert bank.read_bytes(2) == bytes(64)
    assert bank.fault_count(3) == 0


def test_wear_accumulates_per_block(bank):
    one = b"\x01" + bytes(63)
    zero = bytes(64)
    for _ in range(50):
        bank.write_bytes(0, one)
        bank.write_bytes(0, zero)
    # 100 flips at endurance 100: bit 0 is now faulty.
    assert bank.fault_count(0) == 1
    assert bank.fault_positions(0).tolist() == [0]
    assert bank.fault_count(1) == 0


def test_fault_counts_all(bank):
    one = b"\x03" + bytes(63)
    zero = bytes(64)
    for _ in range(50):
        bank.write_bytes(5, one)
        bank.write_bytes(5, zero)
    counts = bank.fault_counts_all()
    assert counts.shape == (8,)
    assert counts[5] == 2
    assert counts.sum() == 2


def test_total_programmed_flips(bank):
    bank.write_bytes(0, b"\xff" + bytes(63))
    assert bank.total_programmed_flips() == 8


def test_update_mask(bank):
    """A one-byte window overlaid on the stored row changes that byte only."""
    bank.write_bytes(1, b"\x00\x00" + bytes(62))
    bank.write(1, place_bytes(bank.stored[1], b"\xff", 1))
    assert bank.read_bytes(1) == b"\x00\xff" + bytes(62)


def test_index_bounds(bank):
    with pytest.raises(IndexError):
        bank.read_bytes(8)
    with pytest.raises(IndexError):
        bank.write_bytes(-1, bytes(64))


def test_needs_positive_block_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        PCMBankArray(0, EnduranceModel(mean=10), rng)
