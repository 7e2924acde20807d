"""Multi-level-cell (MLC) PCM wear model.

The paper evaluates SLC PCM but notes (footnote 1) that the proposed
approach applies to MLC as well, and that MLC is where lifetime
pressure is worst: storing two bits per cell cuts endurance to
1e5..1e6 writes [18] while doubling density.  This module provides an
MLC backend with the same interface as :class:`repro.pcm.bank.PCMBankArray`
so the controller and lifetime simulator run unchanged on it:

* a 512-bit line occupies 256 two-bit cells; logical bits ``2k`` and
  ``2k + 1`` live in cell ``k``;
* a write programs every cell whose *level* (bit pair) changes, and
  each program consumes one unit of that cell's endurance;
* a worn-out cell is stuck at its last level, pinning **both** of its
  bits -- so MLC faults always surface as adjacent-bit-pair errors,
  which is harder on correction schemes than SLC's independent
  single-bit faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bits_to_bytes, bytes_to_bits
from .block import BLOCK_BITS, WriteOutcome
from .variation import EnduranceModel

#: Bits stored per MLC cell.
MLC_BITS_PER_CELL = 2
#: Cells backing one 64-byte line.
MLC_CELLS_PER_BLOCK = BLOCK_BITS // MLC_BITS_PER_CELL

#: Typical MLC endurance range from the paper's reference [18].
MLC_ENDURANCE_MEAN = 10**6


def mlc_endurance_model(
    mean: float = MLC_ENDURANCE_MEAN, cov: float = 0.15
) -> EnduranceModel:
    """An endurance model with MLC-typical parameters."""
    return EnduranceModel(mean=mean, cov=cov)


@dataclass(frozen=True)
class MLCWriteOutcome(WriteOutcome):
    """SLC-compatible outcome plus the cell-level program count."""

    programmed_cells: int = 0


class MLCBankArray:
    """Wear state for an array of lines stored in two-bit cells.

    Drop-in replacement for :class:`repro.pcm.bank.PCMBankArray`: the
    public surface speaks *bit* positions (what the controller and the
    correction schemes understand) while wear is tracked per cell.
    """

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
        self.counts = np.zeros((n_blocks, MLC_CELLS_PER_BLOCK), dtype=np.uint64)
        self.endurance = endurance_model.sample(
            (n_blocks, MLC_CELLS_PER_BLOCK), rng
        )
        # Incrementally maintained cell-level fault state (see
        # PCMBankArray): faults are monotone, so these grow in
        # O(new faults) per write.  `fault_counts` is bit-level
        # (matching `fault_counts_all`'s historical unit).
        self.faulty_cells = self.counts >= self.endurance
        self.fault_counts = (
            np.count_nonzero(self.faulty_cells, axis=1) * MLC_BITS_PER_CELL
        )

    # -- PCMBankArray-compatible interface -------------------------------

    def write(self, block_index: int, new_bits: np.ndarray) -> MLCWriteOutcome:
        """Program one line with differential-write semantics."""
        self._check_index(block_index)
        stored = self.stored[block_index]
        counts = self.counts[block_index]
        endurance = self.endurance[block_index]
        faulty_cells = self.faulty_cells[block_index]

        want = stored != new_bits.astype(np.uint8)

        cell_wants = want.reshape(MLC_CELLS_PER_BLOCK, MLC_BITS_PER_CELL).any(axis=1)
        programmable_cells = cell_wants & ~faulty_cells
        touched_cells = np.flatnonzero(programmable_cells)

        counts[touched_cells] += 1
        writable_bits = np.repeat(programmable_cells, MLC_BITS_PER_CELL) & want
        stored[writable_bits] = new_bits[writable_bits]
        new_fault_cells = touched_cells[
            counts[touched_cells] >= endurance[touched_cells]
        ]

        # Mismatch reconstruction without rescanning `stored` (see
        # repro.pcm.block.apply_write): the errors are exactly the
        # wanted bits inside already-faulty cells.
        stuck = want & np.repeat(faulty_cells, MLC_BITS_PER_CELL)
        faulty_cells[new_fault_cells] = True
        self.fault_counts[block_index] += new_fault_cells.size * MLC_BITS_PER_CELL

        new_fault_bits = (
            new_fault_cells[:, None] * MLC_BITS_PER_CELL
            + np.arange(MLC_BITS_PER_CELL)
        ).ravel()
        programmed_bits = int(np.count_nonzero(writable_bits))
        set_bits = int(np.count_nonzero(writable_bits & (new_bits == 1)))
        return MLCWriteOutcome(
            attempted_flips=int(np.count_nonzero(want)),
            programmed_flips=programmed_bits,
            set_flips=set_bits,
            reset_flips=programmed_bits - set_bits,
            new_fault_positions=new_fault_bits,
            error_positions=np.flatnonzero(stuck),
            programmed_cells=touched_cells.size,
        )

    def write_bytes(self, block_index: int, data: bytes) -> MLCWriteOutcome:
        """Byte-level convenience wrapper around :meth:`write`."""
        return self.write(block_index, bytes_to_bits(data))

    def read_bits(self, block_index: int) -> np.ndarray:
        """The line's current cell values (0/1 array)."""
        self._check_index(block_index)
        return self.stored[block_index]

    def read_bytes(self, block_index: int) -> bytes:
        """The line's current content as 64 bytes."""
        return bits_to_bytes(self.read_bits(block_index))

    def faulty_mask(self, block_index: int) -> np.ndarray:
        """Per-*bit* fault mask (both bits of a dead cell are stuck)."""
        self._check_index(block_index)
        return np.repeat(self.faulty_cells[block_index], MLC_BITS_PER_CELL)

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
        """Total cell programs (the MLC wear/energy unit)."""
        return int(self.counts.sum())

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(
                f"block {block_index} out of range [0, {self.n_blocks})"
            )
