"""Unit tests for the MLC wear model."""

import numpy as np
import pytest

from repro.pcm import (
    BLOCK_BITS,
    MLC_CELLS_PER_BLOCK,
    EnduranceModel,
    MLCBankArray,
    PCMBankArray,
)


def make_bank(endurance=100, cov=0.0, n_blocks=4, **kwargs):
    rng = np.random.default_rng(0)
    model = EnduranceModel(mean=endurance, cov=cov)
    return MLCBankArray(n_blocks, model, rng, **kwargs)


def test_geometry():
    bank = make_bank()
    assert bank.counts.shape == (4, MLC_CELLS_PER_BLOCK)
    assert bank.stored.shape == (4, BLOCK_BITS)
    assert MLC_CELLS_PER_BLOCK == 256


def test_write_read_roundtrip():
    bank = make_bank()
    data = bytes(range(64))
    outcome = bank.write_bytes(0, data)
    assert outcome.clean
    assert bank.read_bytes(0) == data


def test_pair_flip_costs_one_cell_program():
    bank = make_bank()
    # Bits 0 and 1 share cell 0: flipping both programs one cell.
    bank.write_bytes(0, b"\x03" + bytes(63))
    assert bank.counts[0][0] == 1
    assert bank.counts[0][1:].sum() == 0
    assert bank.total_programmed_flips() == 1


def test_single_bit_flip_still_programs_the_cell():
    bank = make_bank()
    outcome = bank.write_bytes(1, b"\x01" + bytes(63))
    assert outcome.programmed_cells == 1
    assert outcome.programmed_flips == 1  # one bit changed


def test_cell_death_pins_both_bits():
    bank = make_bank(endurance=2)
    one = b"\x01" + bytes(63)
    three = b"\x03" + bytes(63)
    bank.write_bytes(0, one)  # program 1: cell level 01
    bank.write_bytes(0, three)  # program 2: cell dies at level 11
    assert bank.fault_count(0) == 2  # both bits reported faulty
    assert set(bank.fault_positions(0)) == {0, 1}
    # Writing anything else leaves the stuck level in place.
    outcome = bank.write_bytes(0, bytes(64))
    assert set(outcome.error_positions) == {0, 1}
    assert bank.read_bytes(0) == three


def test_mlc_wears_twice_as_fast_as_slc_per_capacity():
    """Same write stream: MLC consumes cell programs at least as fast as
    SLC consumes bit programs halved (two bits share one cell's budget)."""
    rng = np.random.default_rng(3)
    stream = [rng.bytes(64) for _ in range(50)]
    slc = PCMBankArray(1, EnduranceModel(mean=10**6, cov=0.0), np.random.default_rng(1))
    mlc = make_bank(endurance=10**6, n_blocks=1)
    for data in stream:
        slc.write_bytes(0, data)
        mlc.write_bytes(0, data)
    slc_bits = slc.total_programmed_flips()
    mlc_cells = mlc.total_programmed_flips()
    assert mlc_cells > 0.5 * slc_bits  # pair coupling wastes endurance


def test_fault_counts_all_reports_bits():
    bank = make_bank(endurance=1, n_blocks=2)
    bank.write_bytes(1, b"\xff" * 64)
    counts = bank.fault_counts_all()
    assert counts[0] == 0
    assert counts[1] == BLOCK_BITS


def test_validation():
    with pytest.raises(ValueError):
        make_bank(n_blocks=0)
    bank = make_bank()
    with pytest.raises(IndexError):
        bank.read_bytes(4)
