"""Unit tests for the one-line write semantics, on a one-row bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm import (
    BLOCK_BITS,
    EnduranceModel,
    PCMBankArray,
    PCMCell,
    bytes_to_bits,
)


def uniform_block(endurance=1000):
    """A one-row bank whose every cell has exactly ``endurance`` flips."""
    model = EnduranceModel(mean=endurance, cov=0.0)
    return PCMBankArray(1, model, np.random.default_rng(0))


def test_fresh_block_reads_zero():
    block = uniform_block()
    assert block.read_bytes(0) == bytes(64)
    assert block.fault_count(0) == 0


def test_write_and_read_back():
    block = uniform_block()
    data = bytes(range(64))
    outcome = block.write_bytes(0, data)
    assert outcome.clean
    assert block.read_bytes(0) == data


def test_differential_write_counts_only_changes():
    block = uniform_block()
    block.write_bytes(0, b"\xff" * 64)
    outcome = block.write_bytes(0, b"\xff" * 63 + b"\xfe")
    assert outcome.attempted_flips == 1
    assert outcome.programmed_flips == 1


def test_rewriting_same_data_costs_nothing():
    block = uniform_block()
    data = bytes(range(64))
    block.write_bytes(0, data)
    counts_before = block.counts.copy()
    outcome = block.write_bytes(0, data)
    assert outcome.programmed_flips == 0
    assert np.array_equal(block.counts, counts_before)


def test_cells_wear_out_and_stick():
    block = uniform_block(endurance=2)
    # Flip bit 0 back and forth: each toggle programs it once.
    one = b"\x01" + bytes(63)
    zero = bytes(64)
    block.write_bytes(0, one)
    outcome = block.write_bytes(0, zero)  # second flip exhausts endurance
    assert list(outcome.new_fault_positions) == [0]
    assert block.fault_count(0) == 1
    # Stuck at last value (0): writing 1 now fails.
    outcome = block.write_bytes(0, one)
    assert list(outcome.error_positions) == [0]
    assert block.read_bytes(0) == zero


def test_update_mask_limits_programming():
    block = uniform_block()
    block.write_bytes(0, bytes(64))
    mask = np.zeros(BLOCK_BITS, dtype=bool)
    mask[:8] = True  # only byte 0 may change
    outcome = block.write(0, bytes_to_bits(b"\xff" * 64), update_mask=mask)
    assert outcome.programmed_flips == 8
    assert block.read_bytes(0) == b"\xff" + bytes(63)


def test_update_mask_suppresses_outside_errors():
    block = uniform_block(endurance=1)
    block.write_bytes(0, b"\xff" * 64)  # wears out all 512 cells, stuck at 1
    assert block.fault_count(0) == BLOCK_BITS
    mask = np.zeros(BLOCK_BITS, dtype=bool)
    mask[:8] = True
    # 0x55 wants bits 1,3,5,7 at 0; those cells are stuck at 1.  Errors
    # outside the masked byte are not reported.
    outcome = block.write(0, bytes_to_bits(b"\x55" * 64), update_mask=mask)
    assert set(outcome.error_positions) == {1, 3, 5, 7}


def test_fresh_samples_from_model():
    rng = np.random.default_rng(1)
    model = EnduranceModel(mean=1000, cov=0.15)
    block = PCMBankArray(1, model, rng)
    assert block.endurance.shape == (1, BLOCK_BITS)
    assert 700 < block.endurance.mean() < 1300


def test_bad_write_shape_rejected():
    block = uniform_block()
    with pytest.raises(ValueError):
        block.write(0, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        block.write_rows(np.array([0]), np.zeros((1, 8), dtype=np.uint8))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=64, max_size=64), min_size=1, max_size=8))
def test_block_agrees_with_reference_cell_model(lines):
    """Both bank write paths match 512 independent PCMCells."""
    endurance = 3
    serial = uniform_block(endurance=endurance)
    batched = uniform_block(endurance=endurance)
    cells = [PCMCell(endurance=endurance) for _ in range(BLOCK_BITS)]
    for line in lines:
        bits = bytes_to_bits(line)
        serial.write(0, bits)
        batched.write_rows(np.array([0]), bits[None, :])
        for cell, bit in zip(cells, bits):
            cell.write(int(bit))
    expected = np.array([cell.read().value for cell in cells], dtype=np.uint8)
    writes_used = [cell.writes_used for cell in cells]
    faults = sum(cell.is_faulty for cell in cells)
    for bank in (serial, batched):
        assert np.array_equal(bank.stored[0], expected)
        assert bank.counts[0].tolist() == writes_used
        assert bank.fault_count(0) == faults
