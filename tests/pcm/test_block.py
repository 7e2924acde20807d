"""Unit tests for the one-line write semantics, on a one-row bank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import place_bytes, window_mask
from repro.pcm import (
    BLOCK_BITS,
    EnduranceModel,
    MLCBankArray,
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
    """Only the window's cells are programmed when the target is an
    overlay on the stored row."""
    block = uniform_block()
    block.write_bytes(0, bytes(64))
    outcome = block.write(0, place_bytes(block.stored[0], b"\xff", 0))
    assert outcome.programmed_flips == 8
    assert block.read_bytes(0) == b"\xff" + bytes(63)


def test_update_mask_suppresses_outside_errors():
    block = uniform_block(endurance=1)
    block.write_bytes(0, b"\xff" * 64)  # wears out all 512 cells, stuck at 1
    assert block.fault_count(0) == BLOCK_BITS
    # 0x55 wants bits 1,3,5,7 at 0; those cells are stuck at 1.  Outside
    # byte 0 the overlay asks for the stuck value, so no error is reported.
    outcome = block.write(0, place_bytes(block.stored[0], b"\x55", 0))
    assert set(outcome.error_positions) == {1, 3, 5, 7}


@pytest.mark.parametrize(
    "bank_class", [PCMBankArray, MLCBankArray], ids=["slc", "mlc"]
)
@given(
    history=st.lists(st.binary(min_size=64, max_size=64), max_size=4),
    start=st.integers(0, 63),
    payload=st.binary(min_size=1, max_size=64),
)
@settings(deadline=None, max_examples=60)
def test_window_overlay_leaves_cells_outside_the_window_alone(
    bank_class, history, start, payload
):
    """A windowed write programs its payload overlaid on the stored
    cells (the engine's program step), so no cell outside the window
    (which may wrap around the line end) changes, wears or reports an
    error, stuck cells included: endurance 2 wears cells out within the
    history."""
    bank = bank_class(1, EnduranceModel(mean=2, cov=0.0), np.random.default_rng(0))
    for line in history:
        bank.write_bytes(0, line)
    stored, counts = bank.stored[0].copy(), bank.counts[0].copy()
    outside = ~window_mask(start, len(payload))
    outcome = bank.write(0, place_bytes(stored, payload, start))
    assert not outside[outcome.error_positions].any()
    np.testing.assert_array_equal(bank.stored[0][outside], stored[outside])
    # MLC counts are per 2-bit cell; byte windows never split a cell.
    cells_outside = outside[:: BLOCK_BITS // len(counts)]
    np.testing.assert_array_equal(bank.counts[0][cells_outside], counts[cells_outside])


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
