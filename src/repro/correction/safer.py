"""SAFER: Stuck-At-Fault Error Recovery (Seong et al., MICRO 2010, [9]).

SAFER dynamically partitions the line so that every partition contains
at most one faulty cell, then stores each partition either directly or
complemented so the stuck cell's value matches the data (stuck-at
faults are maskable by inversion because their values are readable).

The partition function is a bit-position projection: with ``2**k``
partitions, SAFER picks ``k`` of the ``log2(block_bits)`` cell-index
bits, and a cell's partition id is its index projected onto those
positions.  A fault set is correctable iff *some* choice of ``k`` index
bits gives every fault a distinct partition id.

SAFER-32 on 512-bit lines (the paper's configuration) deterministically
corrects ``k + 1 = 6`` faults and probabilistically up to 32; the
chance of fixing more than ~8 is small -- exactly the behaviour the
Monte Carlo study (Figure 9b) shows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations

import numpy as np

from .base import DEFAULT_BLOCK_BITS, CorrectionScheme, normalize_faults


class SAFER(CorrectionScheme):
    """SAFER with ``partitions`` (a power of two) groups."""

    def __init__(
        self, partitions: int = 32, block_bits: int = DEFAULT_BLOCK_BITS
    ) -> None:
        super().__init__(block_bits)
        if partitions < 2 or partitions & (partitions - 1):
            raise ValueError("partition count must be a power of two >= 2")
        if block_bits & (block_bits - 1):
            raise ValueError("SAFER requires a power-of-two block size")
        self.partitions = partitions
        self.name = f"safer{partitions}"
        self.index_bits = int(math.log2(block_bits))
        self.select_bits = int(math.log2(partitions))
        if self.select_bits > self.index_bits:
            raise ValueError("more partitions than cells")
        # Field-selection metadata + one inversion flag per partition.
        selection_bits = math.ceil(
            math.log2(math.comb(self.index_bits, self.select_bits))
        )
        self.metadata_bits = selection_bits + partitions
        # SAFER guarantees log2(n)+1 faults (one per partition plus the
        # pigeonhole argument of the original paper).
        self.deterministic_capability = self.select_bits + 1
        self._selections = tuple(
            combinations(range(self.index_bits), self.select_bits)
        )
        # Weight matrix turning a fault's index bits into its partition
        # id under every candidate selection at once (vectorized path).
        weights = np.zeros((len(self._selections), self.index_bits), dtype=np.int64)
        for row, selection in enumerate(self._selections):
            for order, bit in enumerate(selection):
                weights[row, bit] = 1 << order
        self._selection_weights = weights

    #: At most one fault per partition.
    fault_ceiling = property(lambda self: self.partitions)

    def can_correct(self, fault_positions: Iterable[int]) -> bool:
        """Whether the fault set is tolerable (see :class:`CorrectionScheme`)."""
        faults = normalize_faults(fault_positions, self.block_bits)
        if faults.size <= 1:
            return True
        if faults.size > self.partitions:
            return False
        index_bits = ((faults[:, None] >> np.arange(self.index_bits)) & 1)
        ids = index_bits @ self._selection_weights.T  # (faults, selections)
        ids.sort(axis=0)
        collisions = (np.diff(ids, axis=0) == 0).any(axis=0)
        return bool((~collisions).any())

    def find_partition(
        self, fault_positions: Iterable[int]
    ) -> tuple[int, ...] | None:
        """Index-bit positions separating all faults, or None.

        Returns the first (lexicographically) choice of ``select_bits``
        index-bit positions under which every fault lands in a distinct
        partition -- i.e. the field selection SAFER's hardware would
        latch.
        """
        faults = normalize_faults(fault_positions, self.block_bits)
        if faults.size <= 1:
            return tuple(range(self.select_bits))
        if faults.size > self.partitions:
            return None
        for selection in self._selections:
            ids = np.zeros(faults.size, dtype=np.int64)
            for order, bit in enumerate(selection):
                ids |= ((faults >> bit) & 1) << order
            if np.unique(ids).size == faults.size:
                return selection
        return None

    def partition_ids(self, selection: tuple[int, ...], positions: np.ndarray) -> np.ndarray:
        """Partition id of each cell position under a field selection."""
        ids = np.zeros(positions.size, dtype=np.int64)
        for order, bit in enumerate(selection):
            ids |= ((positions >> bit) & 1) << order
        return ids


def safer32(block_bits: int = DEFAULT_BLOCK_BITS) -> SAFER:
    """The paper's evaluated configuration: SAFER-32."""
    return SAFER(partitions=32, block_bits=block_bits)
