"""Common interface for hard-error correction schemes.

PCM stuck-at faults are *detectable* on write-verify (the paper,
Section II-C), so correction schemes only need to tolerate known-bad
cell positions.  What the rest of the system asks a scheme is therefore
a feasibility question: *given this set of faulty cell positions, can
the line still be stored correctly?*  ECP answers by spare capacity,
SAFER and Aegis by finding a partition with at most one fault per
group.

The compression architecture extends every scheme the same way: only
faults *inside the compression window* matter (Section III-A.4), so the
controller calls :meth:`CorrectionScheme.can_correct` on the restricted
fault set.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable

import numpy as np

#: Cells in a 64-byte memory line.
DEFAULT_BLOCK_BITS = 512


def normalize_faults(fault_positions: Iterable[int], block_bits: int) -> np.ndarray:
    """Validate and deduplicate fault positions into a sorted array."""
    if isinstance(fault_positions, np.ndarray):
        faults = np.unique(fault_positions.astype(np.int64, copy=False))
    else:
        faults = np.unique(np.asarray(list(fault_positions), dtype=np.int64))
    if faults.size and (faults[0] < 0 or faults[-1] >= block_bits):
        raise ValueError(
            f"fault positions must lie in [0, {block_bits}), got "
            f"[{faults[0]}, {faults[-1]}]"
        )
    return faults


class CorrectionScheme(abc.ABC):
    """A hard-error tolerance scheme for one memory line."""

    #: Human-readable scheme name (e.g. ``"ecp6"``).
    name: str = "abstract"
    #: Bits of the per-line ECC-chip slice the scheme consumes.
    metadata_bits: int = 0
    #: Number of faults the scheme corrects regardless of placement.
    deterministic_capability: int = 0

    def __init__(self, block_bits: int = DEFAULT_BLOCK_BITS) -> None:
        if block_bits <= 0:
            raise ValueError("block size must be positive")
        self.block_bits = block_bits

    @property
    def fault_ceiling(self) -> int:
        """Most faults :meth:`can_correct` ever accepts, from the scheme's
        geometry (derived, so schemes pickled before it have one too)."""
        return self.block_bits

    @abc.abstractmethod
    def can_correct(self, fault_positions: Iterable[int]) -> bool:
        """Whether a line with these stuck-at faults is still usable."""

    def spare_metadata_bits(self, available_bits: int = 64) -> int:
        """Unused bits in the ECC-chip slice (ECP-6 leaves 3 of 64).

        The paper stores the per-line "compressed?" flag in one of
        these spare bits (Section III-B).
        """
        if self.metadata_bits > available_bits:
            raise ValueError(
                f"{self.name} needs {self.metadata_bits} metadata bits but "
                f"only {available_bits} are available"
            )
        return available_bits - self.metadata_bits
