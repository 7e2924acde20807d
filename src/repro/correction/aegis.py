"""Aegis: lattice-based partitioning (Fan et al., MICRO 2013, ref [11]).

Aegis maps the cells of a line onto a k x n grid (the paper evaluates
Aegis 17x31: 17 rows of 31 columns cover 512 data bits plus metadata)
and partitions the grid with families of parallel lines in the affine
plane over Z_n (n prime): under slope ``s`` a cell at (x, y) belongs to
group ``(x + s*y) mod n``.  Every family yields ``n`` groups of at most
``k`` cells, and -- the key property -- two distinct cells share a
group in **at most one** family.  A fault set is correctable iff some
family separates all faults into distinct groups (each group then masks
its single fault by inversion, as in SAFER).

The at-most-one-collision property gives a much better guarantee than
SAFER for the same metadata budget: with ``f`` faults there are at most
``C(f, 2)`` colliding families, so any ``f`` with ``C(f, 2) < n + 1``
is always correctable (f = 8 for n = 31: C(8,2) = 28 <= 31 families).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .base import DEFAULT_BLOCK_BITS, CorrectionScheme, normalize_faults


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


class Aegis(CorrectionScheme):
    """Aegis with a ``rows x columns`` grid (columns must be prime)."""

    def __init__(
        self,
        rows: int = 17,
        columns: int = 31,
        block_bits: int = DEFAULT_BLOCK_BITS,
    ) -> None:
        super().__init__(block_bits)
        if not _is_prime(columns):
            raise ValueError("Aegis needs a prime column count")
        if rows < 1 or rows > columns:
            raise ValueError("row count must be in [1, columns]")
        if rows * columns < block_bits:
            raise ValueError(
                f"a {rows}x{columns} grid holds {rows * columns} cells, "
                f"fewer than the block's {block_bits}"
            )
        self.rows = rows
        self.columns = columns
        self.name = f"aegis{rows}x{columns}"
        # One slope choice (log2(n+1) bits) + one inversion flag per group.
        self.metadata_bits = math.ceil(math.log2(columns + 1)) + columns
        # Largest f with C(f, 2) < number of families (n slopes + the
        # vertical family): every pair of cells collides in exactly one
        # family, so with fewer pairs than families some family must be
        # collision-free.  (The vertical family holds at most ``rows``
        # faults, amply above this bound for the paper's 17x31 grid.)
        families = columns + 1
        capability = 1
        while math.comb(capability + 1, 2) < families and capability < rows:
            capability += 1
        self.deterministic_capability = capability

    #: At most one fault per group: a slope family has ``columns``
    #: groups, the vertical one ``rows`` <= ``columns``.
    fault_ceiling = property(lambda self: self.columns)

    def can_correct(self, fault_positions: Iterable[int]) -> bool:
        """Whether the fault set is tolerable (see :class:`CorrectionScheme`)."""
        return self.find_slope(fault_positions) is not None

    def find_slope(self, fault_positions: Iterable[int]) -> int | None:
        """A slope whose line family separates all faults, or None.

        Slopes ``0..columns-1`` select group ``(x + s*y) mod n``; the
        sentinel slope ``columns`` is the vertical family (group = y),
        usable when the grid's rows are distinct for all faults.
        """
        faults = normalize_faults(fault_positions, self.block_bits)
        if faults.size <= 1:
            return 0
        if faults.size > self.columns:
            return None
        x = faults % self.columns
        y = faults // self.columns
        for slope in range(self.columns):
            groups = (x + slope * y) % self.columns
            if np.unique(groups).size == faults.size:
                return slope
        if np.unique(y).size == faults.size and faults.size <= self.rows:
            return self.columns  # vertical family
        return None

    def group_ids(self, slope: int, positions: np.ndarray) -> np.ndarray:
        """Group id of each cell position under a slope family."""
        x = positions % self.columns
        y = positions // self.columns
        if slope == self.columns:
            return y
        return (x + slope * y) % self.columns


def aegis17x31(block_bits: int = DEFAULT_BLOCK_BITS) -> Aegis:
    """The paper's evaluated configuration: Aegis 17x31."""
    return Aegis(rows=17, columns=31, block_bits=block_bits)
