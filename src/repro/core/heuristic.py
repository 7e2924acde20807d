"""The bit-flip control heuristic (Figure 8).

Compression *increases* bit flips for ~20 % of write-backs, mostly when
consecutive writes to a block keep changing compressed size (Figures 5
and 6).  The controller cannot observe actual flip counts -- those are
determined by the chips' differential-write logic -- so the paper
predicts them from two cheap signals: the new compressed size and a
2-bit per-line saturating counter (SC) tracking size volatility.

The decision flow, verbatim from Figure 8:

1. ``new_size < Threshold1``  ->  write compressed (tiny writes always
   win; SC is left untouched).
2. else if SC is saturated    ->  write uncompressed (the block has a
   history of size swings; avoid the extra flips).
3. else                       ->  write compressed, and update SC:
   ``|old_size - new_size| < Threshold2`` decrements it (stable sizes),
   otherwise increments it.

Every outcome is a pure function of ``(SC, Old_S, New_S)``, so
:class:`BitFlipHeuristic` evaluates the flow once, over the whole
domain, into one lookup table: the serial path indexes it with Python
ints (:meth:`BitFlipHeuristic.lookup`), the batched path with arrays
(:meth:`BitFlipHeuristic.lookup_many`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_THRESHOLD1, DEFAULT_THRESHOLD2
from .metadata import SC_MAX, LineMetadata

#: Sizes index the table directly, ``0..64`` bytes (0 is never looked up).
_SIZES = 65


@dataclass(frozen=True)
class HeuristicDecision:
    """Outcome of one Figure 8 evaluation."""

    compress: bool
    #: Which Figure 8 step fired (1, 2 or 3), for analysis/ablations.
    step: int


#: The three possible decisions, pre-built and indexed by step: one is
#: returned per write on the simulator's hot path, so construction
#: cost matters.
_DECISIONS = (
    None,
    HeuristicDecision(compress=True, step=1),
    HeuristicDecision(compress=False, step=2),
    HeuristicDecision(compress=True, step=3),
)


def figure8_table(threshold1: int, threshold2: int) -> np.ndarray:
    """The Figure 8 flow over every ``(sc, old_size, new_size)``.

    Entry ``[sc, old, new]`` packs the outcome as
    ``compress << 4 | step << 2 | new_sc``.
    """
    sc, old, new = np.ogrid[: SC_MAX + 1, :_SIZES, :_SIZES]
    step = np.where(new < threshold1, 1, np.where(sc == SC_MAX, 2, 3))
    stable = np.abs(old - new) < threshold2
    new_sc = np.where(
        step == 3,
        np.where(stable, np.maximum(sc - 1, 0), np.minimum(sc + 1, SC_MAX)),
        sc,
    )
    table = ((step != 2) << 4 | step << 2 | new_sc).astype(np.uint8)
    table.flags.writeable = False
    return table


class BitFlipHeuristic:
    """Figure 8 decision logic with configurable thresholds."""

    def __init__(
        self,
        threshold1: int = DEFAULT_THRESHOLD1,
        threshold2: int = DEFAULT_THRESHOLD2,
    ) -> None:
        if threshold1 < 1:
            raise ValueError("threshold1 must be positive")
        if threshold2 < 0:
            raise ValueError("threshold2 cannot be negative")
        self.threshold1 = threshold1
        self.threshold2 = threshold2
        self.table = figure8_table(threshold1, threshold2)

    def __getstate__(self) -> dict:
        # The table is derived from the thresholds: rebuilt on load, so
        # pickles (and checkpoints from before it existed) stay small.
        return {"threshold1": self.threshold1, "threshold2": self.threshold2}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["threshold1"], state["threshold2"])

    def lookup(self, sc: int, old_size: int, new_size: int) -> tuple[bool, int, int]:
        """``(compress, step, new_sc)`` for one write (sizes 1..64)."""
        code = self.table.item(sc, old_size, new_size)
        return code >= 16, (code >> 2) & 3, code & 3

    def lookup_many(self, sc, old_size, new_size):
        """Array :meth:`lookup`: ``(compress, step, new_sc)`` arrays."""
        code = self.table[sc, old_size, new_size]
        return code >= 16, (code >> 2) & 3, code & 3

    def decide(self, metadata: LineMetadata, new_size: int) -> HeuristicDecision:
        """Evaluate Figure 8 and update ``metadata.sc`` in place.

        Args:
            metadata: The line's metadata; ``stored_size`` supplies
                ``Old_S`` and ``sc`` is updated per step 3.
            new_size: Byte size of the new data after compression.
        """
        if not 1 <= new_size <= 64:
            raise ValueError(f"compressed size {new_size} out of range")
        _, step, metadata.sc = self.lookup(
            metadata.sc, metadata.stored_size, new_size
        )
        return _DECISIONS[step]
