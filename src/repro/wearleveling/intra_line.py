"""Intra-line wear-leveling (Section III-A.2).

Compression concentrates writes in the least-significant bytes of a
line; without countermeasures those cells wear out far faster than the
rest (the Comp configuration's failure mode in Figure 10).  The paper's
fix is deliberately cheap: instead of per-line write counters, one
16-bit counter per *bank* counts writes, and every time it saturates
the bank's window-placement offset rotates by one byte.  Each line's
compression window therefore drifts across all 64 byte positions over
time, and the per-line start pointer (metadata) records where the
window currently sits, so reads always know where to look.
"""

from __future__ import annotations

import numpy as np


class IntraLineWearLeveler:
    """Per-bank rotation offsets driven by saturating write counters."""

    def __init__(
        self,
        n_banks: int,
        counter_bits: int = 16,
        step_bytes: int = 1,
        line_bytes: int = 64,
        counter_limit: int | None = None,
    ) -> None:
        """``counter_limit`` overrides ``2**counter_bits`` when given
        (scaled-endurance simulations need non-power-of-two limits)."""
        if n_banks < 1:
            raise ValueError("need at least one bank")
        if counter_bits < 1:
            raise ValueError("counter width must be positive")
        if counter_limit is not None and counter_limit < 1:
            raise ValueError("counter limit must be positive")
        if not 1 <= step_bytes < line_bytes:
            raise ValueError("step must be in [1, line_bytes)")
        self.n_banks = n_banks
        self.counter_limit = counter_limit or (1 << counter_bits)
        self.step_bytes = step_bytes
        self.line_bytes = line_bytes
        self._counters = [0] * n_banks
        self._offsets = [0] * n_banks
        self.rotations = 0

    def offset(self, bank: int) -> int:
        """Current window-placement rotation (bytes) for a bank."""
        self._check_bank(bank)
        return self._offsets[bank]

    def record_write(self, bank: int) -> bool:
        """Count one write to ``bank``; True when the offset rotated.

        Rotation applies to *new* writes only -- lines written before
        the rotation keep their recorded start pointer until rewritten,
        exactly as in the paper's design (no eager data movement).
        """
        self._check_bank(bank)
        self._counters[bank] += 1
        if self._counters[bank] < self.counter_limit:
            return False
        self._counters[bank] = 0
        self._offsets[bank] = (
            self._offsets[bank] + self.step_bytes
        ) % self.line_bytes
        self.rotations += 1
        return True

    def record_writes(self, banks: np.ndarray) -> np.ndarray:
        """Count a run of writes at once; returns the offset each saw.

        ``banks[i]`` is the bank of the run's ``i``-th write.
        Equivalent to calling :meth:`offset` then :meth:`record_write`
        per write, in order: a write sees every rotation its bank
        completed before it, so a rotation may land mid-run.
        """
        offsets = np.array(self._offsets)
        seen = offsets[banks]
        limit = self.counter_limit
        totals = [
            counter + count for counter, count in zip(
                self._counters,
                np.bincount(banks, minlength=self.n_banks).tolist(),
            )
        ]
        if max(totals) < limit:  # no bank rotates during the run
            self._counters = totals
            return seen
        counters = np.array(self._counters)
        # How many earlier writes of the run hit each write's bank.
        hits = banks[:, None] == np.arange(self.n_banks)
        earlier = np.cumsum(hits, axis=0)[np.arange(len(banks)), banks] - 1
        step = self.step_bytes
        seen = (
            seen + (counters[banks] + earlier) // limit * step
        ) % self.line_bytes
        rotations = [total // limit for total in totals]
        self._counters = [total % limit for total in totals]
        self._offsets = [
            (offset + turns * step) % self.line_bytes
            for offset, turns in zip(self._offsets, rotations)
        ]
        self.rotations += sum(rotations)
        return seen

    def writes_until_rotation(self, bank: int) -> int:
        """Writes remaining before the bank's next rotation."""
        self._check_bank(bank)
        return self.counter_limit - self._counters[bank]

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.n_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.n_banks})")
