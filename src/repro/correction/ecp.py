"""ECP: Error-Correcting Pointers (Schechter et al., ISCA 2010, ref [8]).

ECP-n keeps ``n`` (pointer, replacement-cell) pairs per line: a pointer
names a faulty cell and the replacement cell supplies its value on
reads.  For 512-bit lines a pointer is 9 bits, so ECP-6 costs
``1 + 6 x (9 + 1) = 61`` bits -- it fits the 64-bit ECC-chip slice with
3 bits to spare (one of which the paper reuses as the compressed flag).

ECP corrects any ``n`` faults regardless of position, and nothing
beyond that: the feasibility rule is simply ``len(faults) <= n``.
Besides the feasibility predicate this module implements the actual
pointer table so reads can be repaired end-to-end in tests/examples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .base import DEFAULT_BLOCK_BITS, CorrectionScheme, normalize_faults


class ECP(CorrectionScheme):
    """Error-correcting pointers with ``entries`` replacement cells."""

    def __init__(self, entries: int = 6, block_bits: int = DEFAULT_BLOCK_BITS) -> None:
        super().__init__(block_bits)
        if entries < 0:
            raise ValueError("entry count cannot be negative")
        self.entries = entries
        self.name = f"ecp{entries}"
        pointer_bits = max(1, math.ceil(math.log2(block_bits)))
        # One "full" bit plus (pointer + replacement cell) per entry.
        self.metadata_bits = 1 + entries * (pointer_bits + 1)
        self.deterministic_capability = entries
        self.pointer_bits = pointer_bits

    fault_ceiling = property(lambda self: self.entries)

    def can_correct(self, fault_positions: Iterable[int]) -> bool:
        """Whether the fault set is tolerable (see :class:`CorrectionScheme`)."""
        faults = normalize_faults(fault_positions, self.block_bits)
        return faults.size <= self.entries

    def repair(
        self, stored_bits: np.ndarray, fault_positions: Iterable[int], true_bits: np.ndarray
    ) -> np.ndarray:
        """Repair a read using pointer entries.

        Models the full read path: each pointer entry overrides the
        stuck cell's stored value with the replacement cell's (correct)
        value.  Raises if there are more faults than entries.

        Args:
            stored_bits: What the array returned (stuck cells wrong).
            fault_positions: Known faulty cell positions.
            true_bits: The data the line is supposed to hold; the
                replacement cells were programmed from it on the last
                write, so the repair sources their values here.
        """
        faults = normalize_faults(fault_positions, self.block_bits)
        if faults.size > self.entries:
            raise ValueError(
                f"{self.name} cannot repair {faults.size} faults "
                f"(capacity {self.entries})"
            )
        repaired = stored_bits.copy()
        repaired[faults] = true_bits[faults]
        return repaired


def ecp6(block_bits: int = DEFAULT_BLOCK_BITS) -> ECP:
    """The paper's default scheme: ECP-6 (61 metadata bits)."""
    return ECP(entries=6, block_bits=block_bits)
