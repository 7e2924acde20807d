"""Vectorized wear model for a whole PCM bank (array of lines).

This is the hot path of the lifetime simulator: all per-cell state for
``n_blocks`` lines lives in three contiguous numpy arrays, and a write
touches exactly one row (a batched wave, :meth:`PCMBankArray.write_rows`,
touches one row per write).  :meth:`PCMBankArray.write` runs
:func:`repro.pcm.block.apply_write` over one row; worn-out cells are
stuck at the value they last held.
"""

from __future__ import annotations

import numpy as np

from .bits import bits_to_bytes, bytes_to_bits
from .block import BLOCK_BITS, WriteOutcome, apply_write
from .variation import EnduranceModel


def _flip_counts(
    want: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row programmed and SET flip counts, exact, on packed words.

    ``want`` is the ``(K, 512)`` programmed-cell mask; a programmed
    cell is a SET when its target is 1.  Packing both matrices to
    uint64 words turns each count into a ``bitwise_count`` sum over
    eight words per row instead of 512 cells.
    """
    packed_want = np.packbits(want, axis=1).view(np.uint64)
    packed_sets = packed_want & np.packbits(targets, axis=1).view(np.uint64)
    return (
        np.bitwise_count(packed_want).sum(axis=1, dtype=np.int64),
        np.bitwise_count(packed_sets).sum(axis=1, dtype=np.int64),
    )


def check_write_rows(
    rows, targets, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``write_rows`` call; returns ``(rows, targets)`` arrays.

    Raises ``ValueError`` for rows that are not a 1-D integer vector,
    lie outside ``[0, n_blocks)`` (a negative row would silently wrap
    to the end of the bank) or repeat (the fancy-indexed scatter would
    silently drop all but one update), and for targets not shaped
    ``(K, 512)``.  One sort of at most a wave's worth of ints.
    """
    rows = np.asarray(rows)
    targets = np.asarray(targets)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(
            f"write_rows rows must be a 1-D integer vector, got "
            f"{rows.dtype} with shape {rows.shape}"
        )
    if targets.shape != (len(rows), BLOCK_BITS):
        raise ValueError(
            f"write_rows targets must be shaped ({len(rows)}, {BLOCK_BITS}), "
            f"got {targets.shape}"
        )
    if len(rows):
        ordered = np.sort(rows)
        if ordered[0] < 0 or ordered[-1] >= n_blocks:
            raise ValueError(
                f"write_rows rows must lie in [0, {n_blocks}), got "
                f"[{ordered[0]}, {ordered[-1]}]"
            )
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("write_rows rows must be distinct")
    return rows, targets


class PCMBankArray:
    """Per-cell wear state for an array of 64-byte PCM lines."""

    def __init__(
        self,
        n_blocks: int,
        endurance_model: EnduranceModel,
        rng: np.random.Generator,
    ) -> None:
        if n_blocks <= 0:
            raise ValueError("a bank needs at least one block")
        self.n_blocks = n_blocks
        self.endurance_model = endurance_model
        self.stored = np.zeros((n_blocks, BLOCK_BITS), dtype=np.uint8)
        self.counts = np.zeros((n_blocks, BLOCK_BITS), dtype=np.uint64)
        self.endurance = endurance_model.sample((n_blocks, BLOCK_BITS), rng)
        # Incrementally maintained fault state: stuck-at faults are
        # monotone, so `faulty` and the per-block totals only ever grow,
        # updated in O(new faults) per write instead of rescanning
        # `counts >= endurance` (512 uint64 compares) on every query.
        self.faulty = self.counts >= self.endurance
        self.fault_counts = np.count_nonzero(self.faulty, axis=1)
        # Cheap per-row wear bound for the batched fast path: one write
        # programs each cell at most once, so every cell's count is
        # bounded by the number of writes the row has absorbed.  A row
        # whose write total is still at most ``no_wear_limit`` (its
        # weakest cell's endurance minus one) provably has no faulty
        # cell and cannot wear one out on the next write, which lets
        # :meth:`write_rows` skip the per-cell endurance/fault scans.
        self.row_writes = np.zeros(n_blocks, dtype=np.int64)
        self.no_wear_limit = self.endurance.min(axis=1).astype(np.int64) - 1

    def write(self, block_index: int, new_bits: np.ndarray) -> WriteOutcome:
        """Program one line; see :func:`repro.pcm.block.apply_write`."""
        self._check_index(block_index)
        outcome = apply_write(
            self.stored[block_index],
            self.counts[block_index],
            self.endurance[block_index],
            new_bits,
            faulty=self.faulty[block_index],
            has_faults=bool(self.fault_counts[block_index]),
        )
        self.row_writes[block_index] += 1
        worn = outcome.new_fault_positions.size
        if worn:
            self.fault_counts[block_index] += worn
        return outcome

    def write_bytes(self, block_index: int, data: bytes) -> WriteOutcome:
        """Byte-level convenience wrapper around :meth:`write`."""
        return self.write(block_index, bytes_to_bits(data))

    def write_rows(
        self, rows: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Differential write of K *distinct* lines in one vectorized pass.

        ``rows`` is a ``(K,)`` vector of distinct in-range line indices
        and ``targets`` a ``(K, 512)`` 0/1 matrix (anything else raises
        ``ValueError``, see :func:`check_write_rows`).  Every cell is
        updatable: windowed callers overlay the payload on a copy of the
        stored rows, so out-of-window cells compare equal and are left
        untouched.  Row ``j`` has exactly the :meth:`write` semantics:
        already-faulty cells and cells whose stored value matches the
        target are untouched; every programmed cell's count is bumped,
        and cells reaching their endurance limit become stuck at the
        value just written.

        Returns ``(programmed, set_flips, new_faults)``, one ``(K,)``
        vector each, aligned with ``rows``.
        """
        rows, targets = check_write_rows(rows, targets, self.n_blocks)
        row_writes = self.row_writes[rows] + 1
        self.row_writes[rows] = row_writes
        if (row_writes <= self.no_wear_limit[rows]).all():
            # Wear-free rows (the common case until late life): no
            # faulty cells exist and none can appear this write, so the
            # fault mask, the endurance compare, and the worn scatter
            # all drop out.
            want = self.stored[rows] != targets
            self.stored[rows] = targets
            self.counts[rows] += want
            programmed, set_flips = _flip_counts(want, targets)
            return programmed, set_flips, np.zeros(len(rows), dtype=np.int64)
        stored = self.stored[rows]
        want = stored != targets
        want &= ~self.faulty[rows]
        new_counts = self.counts[rows] + want
        worn = want & (new_counts >= self.endurance[rows])
        np.copyto(stored, targets, where=want)
        self.stored[rows] = stored
        self.counts[rows] = new_counts
        worn_per_row = worn.sum(axis=1)
        if worn_per_row.any():
            self.faulty[rows] |= worn
            self.fault_counts[rows] += worn_per_row
        programmed, set_flips = _flip_counts(want, targets)
        return programmed, set_flips, worn_per_row

    def read_bits(self, block_index: int) -> np.ndarray:
        """The line's current cell values (0/1 array)."""
        self._check_index(block_index)
        return self.stored[block_index]

    def read_bytes(self, block_index: int) -> bytes:
        """The line's current content as 64 bytes."""
        return bits_to_bytes(self.read_bits(block_index))

    def faulty_mask(self, block_index: int) -> np.ndarray:
        """Boolean mask of worn-out cells (a view of maintained state).

        Callers must treat the returned row as read-only; it is the
        incrementally maintained fault mask, not a fresh array.
        """
        self._check_index(block_index)
        return self.faulty[block_index]

    def fault_positions(self, block_index: int) -> np.ndarray:
        """Indices of worn-out cells, ascending."""
        return np.flatnonzero(self.faulty_mask(block_index))

    def fault_count(self, block_index: int) -> int:
        """Number of worn-out cells."""
        self._check_index(block_index)
        return int(self.fault_counts[block_index])

    def fault_counts_all(self) -> np.ndarray:
        """Fault count of every block (maintained, O(n_blocks))."""
        return self.fault_counts.copy()

    def total_programmed_flips(self) -> int:
        """Total cell programs so far (energy/wear proxy)."""
        return int(self.counts.sum())

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(
                f"block {block_index} out of range [0, {self.n_blocks})"
            )
