"""Single-cell PCM semantics: states and endurance.

The hot simulation path uses the vectorized :mod:`repro.pcm.bank`
model; this module defines the cell-state vocabulary plus a reference
single-cell implementation used by unit tests and by the documentation
examples.  Keeping an object-level model around makes the vectorized
model's semantics checkable against something readable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class CellState(enum.IntEnum):
    """Logical PCM cell states (SLC).

    A SET (crystalline, low-resistance) cell reads as ``1``; a RESET
    (amorphous, high-resistance) cell reads as ``0``.  The mapping is a
    convention -- what matters for wear is that SET-to-RESET transitions
    dominate wear-out (Section II-B).
    """

    RESET = 0
    SET = 1


@dataclass
class PCMCell:
    """Reference single-cell model with write endurance.

    A write that actually changes the stored value (a "bit flip", which
    is what survives differential-write filtering) consumes one unit of
    endurance.  Once ``writes_used`` reaches ``endurance`` the cell is
    stuck at the last value it held (Section II-B's observable fault):
    further writes are silently ineffective, which is exactly how a
    stuck-at fault manifests to the read-verify logic.
    """

    endurance: int
    state: CellState = CellState.RESET
    writes_used: int = field(default=0)

    def __post_init__(self) -> None:
        if self.endurance <= 0:
            raise ValueError("endurance must be positive")

    @property
    def is_faulty(self) -> bool:
        """Whether the cell has exhausted its endurance."""
        return self.writes_used >= self.endurance

    @property
    def stuck_value(self) -> CellState | None:
        """The value a faulty cell is stuck at, or None if healthy."""
        return self.state if self.is_faulty else None

    def read(self) -> CellState:
        """The cell's effective value (its stored state, stuck or not)."""
        return self.state

    def write(self, value: CellState) -> bool:
        """Program the cell; returns True when the write took effect.

        Mirrors the chip's differential-write behaviour: programming a
        cell with the value it already holds costs no endurance.
        """
        value = CellState(value)
        if value == self.state:
            return True
        if self.is_faulty:
            return False
        self.state = value
        self.writes_used += 1
        return True
