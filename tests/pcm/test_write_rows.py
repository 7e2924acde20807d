"""The batched wave kernel against the per-row write it vectorizes.

``PCMBankArray.write_rows`` (packed flip counts) must leave the bank
exactly as a loop of :meth:`PCMBankArray.write` calls does and report
the same per-row programmed/SET/worn counts, on the wear-free fast
path and on the worn path alike; ``WritePipeline.program_rows`` (the
byte-level wave overlay) must build exactly ``place_bytes`` per row.
Malformed ``write_rows`` calls raise ``ValueError`` instead of wrapping
or dropping updates.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import CompressedPCMController
from repro.core.window import LINE_BYTES, place_bytes
from repro.engine.registry import resolve_config
from repro.pcm import EnduranceModel
from repro.pcm.bank import PCMBankArray

N_BLOCKS = 12
BITS = LINE_BYTES * 8

STATE = ("stored", "counts", "faulty", "fault_counts", "row_writes")


def aged_bank(seed: int, worn_rows: list[int], slack: int) -> PCMBankArray:
    """A bank whose ``worn_rows`` sit within ``slack`` programs of their
    cells' endurance (some cells already stuck), with the maintained
    fault state and the per-row wear bound kept consistent."""
    rng = np.random.default_rng(seed)
    bank = PCMBankArray(N_BLOCKS, EnduranceModel(mean=30.0, cov=0.2), rng)
    bank.stored[:] = rng.integers(0, 2, bank.stored.shape, dtype=np.uint8)
    for row in worn_rows:
        margin = rng.integers(-1, slack + 1, BITS)
        endurance = bank.endurance[row].astype(np.int64)
        bank.counts[row] = np.clip(endurance - margin, 0, endurance)
        bank.faulty[row] = bank.counts[row] >= bank.endurance[row]
        bank.fault_counts[row] = np.count_nonzero(bank.faulty[row])
        bank.row_writes[row] = int(bank.counts[row].max()) + int(
            rng.integers(0, 3)
        )
    return bank


@st.composite
def waves(draw):
    """A wave of distinct rows mixing full-line, windowed and wrapping
    payloads over an optionally aged bank."""
    seed = draw(st.integers(0, 2**16))
    rows = draw(
        st.lists(st.integers(0, N_BLOCKS - 1), min_size=1,
                 max_size=N_BLOCKS, unique=True)
    )
    worn = draw(st.lists(st.sampled_from(rows), unique=True))
    slack = draw(st.integers(0, 3))
    windows = [
        draw(st.one_of(
            st.just((0, LINE_BYTES)),
            st.tuples(st.integers(0, LINE_BYTES - 1),
                      st.integers(1, LINE_BYTES)),
        ))
        for _ in rows
    ]
    return seed, rows, worn, slack, windows


@settings(max_examples=150, deadline=None)
@given(waves())
def test_write_rows_matches_the_per_row_write_loop(wave):
    seed, rows, worn, slack, windows = wave
    batched = aged_bank(seed, worn, slack)
    serial = copy.deepcopy(batched)
    rng = np.random.default_rng(seed + 1)
    targets = np.empty((len(rows), BITS), dtype=np.uint8)
    for j, (row, (start, size)) in enumerate(zip(rows, windows)):
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        targets[j] = place_bytes(batched.stored[row], payload, start)

    programmed, set_flips, new_faults = batched.write_rows(
        np.array(rows), targets
    )

    expected = [serial.write(row, targets[j]) for j, row in enumerate(rows)]
    assert programmed.tolist() == [o.programmed_flips for o in expected]
    assert set_flips.tolist() == [o.set_flips for o in expected]
    assert new_faults.tolist() == [
        o.new_fault_positions.size for o in expected
    ]
    for attr in STATE:
        np.testing.assert_array_equal(
            getattr(batched, attr), getattr(serial, attr), err_msg=attr
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    windows=st.lists(
        st.one_of(
            st.just((0, LINE_BYTES)),
            st.tuples(st.integers(0, LINE_BYTES - 1),
                      st.integers(1, LINE_BYTES - 1)),
            # Wrapping windows: the payload runs past the line's end.
            st.integers(1, LINE_BYTES - 1).flatmap(
                lambda start: st.tuples(
                    st.just(start),
                    st.integers(LINE_BYTES - start + 1, LINE_BYTES),
                )
            ),
        ),
        min_size=1, max_size=N_BLOCKS,
    ),
)
def test_program_rows_targets_equal_place_bytes(seed, windows):
    controller = CompressedPCMController(
        config=resolve_config("comp_wf"),
        n_lines=N_BLOCKS,
        endurance_model=EnduranceModel(mean=1e6, cov=0.1),
        rng=np.random.default_rng(seed),
    )
    memory = controller.engine.memory
    rng = np.random.default_rng(seed + 1)
    memory.stored[:] = rng.integers(0, 2, memory.stored.shape, dtype=np.uint8)
    before = memory.stored.copy()
    rows = rng.permutation(memory.n_blocks)[: len(windows)]
    starts = [start for start, _ in windows]
    payloads = [
        rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        for _, size in windows
    ]

    targets, flips, worn = controller.pipeline.program_rows(rows, payloads, starts)

    assert isinstance(flips, np.ndarray) and flips.shape == (len(rows),)
    for j, (row, payload, start) in enumerate(zip(rows, payloads, starts)):
        expected = place_bytes(before[row], payload, start)
        np.testing.assert_array_equal(targets[j], expected)
        np.testing.assert_array_equal(memory.stored[row], expected)
    assert worn is None


# -- malformed calls ------------------------------------------------------


def malformed_calls():
    """``(rows, targets)`` pairs every ``write_rows`` must reject."""
    good = np.zeros((2, BITS), dtype=np.uint8)
    return {
        "negative row": (np.array([0, -1]), good),
        "out-of-range row": (np.array([0, N_BLOCKS]), good),
        "duplicate rows": (np.array([3, 3]), good),
        "non-integer rows": (np.array([0.0, 1.0]), good),
        "bool rows": (np.array([True, False]), good),
        "2-D rows": (np.array([[0, 1]]), good),
        "targets too narrow": (np.array([0, 1]), np.zeros((2, BITS - 8))),
        "targets row count": (np.array([0, 1]), np.zeros((3, BITS))),
        "targets flat": (np.array([0, 1]), np.zeros(2 * BITS)),
    }


@pytest.mark.parametrize("case", sorted(malformed_calls()))
def test_malformed_write_rows_raise_and_leave_the_bank_untouched(case):
    bank = aged_bank(0, [], 0)
    before = copy.deepcopy(bank)
    rows, targets = malformed_calls()[case]
    with pytest.raises(ValueError, match="write_rows"):
        bank.write_rows(rows, targets)
    for attr in STATE:
        np.testing.assert_array_equal(getattr(bank, attr), getattr(before, attr))


def test_list_rows_and_empty_waves_are_accepted():
    bank = aged_bank(0, [], 0)
    programmed, _, _ = bank.write_rows([1, 2], np.ones((2, BITS), np.uint8))
    assert programmed.shape == (2,)
    programmed, _, _ = bank.write_rows(
        np.array([], dtype=np.intp), np.zeros((0, BITS), np.uint8)
    )
    assert programmed.shape == (0,)
