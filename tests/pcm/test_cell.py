"""Unit tests for the reference single-cell model."""

import pytest

from repro.pcm import CellState, PCMCell


def test_fresh_cell_reads_reset():
    cell = PCMCell(endurance=10)
    assert cell.read() is CellState.RESET
    assert not cell.is_faulty


def test_same_value_write_costs_nothing():
    cell = PCMCell(endurance=2)
    assert cell.write(CellState.RESET)
    assert cell.writes_used == 0


def test_flips_consume_endurance():
    cell = PCMCell(endurance=3)
    cell.write(CellState.SET)
    cell.write(CellState.RESET)
    assert cell.writes_used == 2
    assert not cell.is_faulty


def test_stuck_at_last_holds_final_value():
    cell = PCMCell(endurance=2)
    cell.write(CellState.SET)
    cell.write(CellState.RESET)  # second flip exhausts endurance
    assert cell.is_faulty
    assert cell.read() is CellState.RESET
    assert not cell.write(CellState.SET)  # ineffective
    assert cell.read() is CellState.RESET


def test_stuck_write_matching_value_reports_success():
    cell = PCMCell(endurance=1)
    cell.write(CellState.SET)
    assert cell.is_faulty
    assert cell.write(CellState.SET)  # already holds the value


def test_stuck_value_none_while_healthy():
    assert PCMCell(endurance=5).stuck_value is None


def test_nonpositive_endurance_rejected():
    with pytest.raises(ValueError):
        PCMCell(endurance=0)
