"""Frozen per-bit reference of the WIRE / restricted-coset encoder kernel.

This is the encoder's original bit-cube formulation: every candidate
cell image is materialized as a ``(words, transforms, word_bits)``
0/1 array and its SET/RESET cells are counted with boolean reductions,
selector-cell flips likewise.  The production kernel
(:class:`repro.energy.LineEncoder`) packs each word into one unsigned
integer and counts with ``np.bitwise_count``; the equivalence tests in
``test_encoder_kernel.py`` drive both side by side and require
identical targets, selectors and counters.  Keep this module as it is:
it is the specification, not an implementation to optimize.
"""

from __future__ import annotations

import numpy as np

from repro.core.window import LINE_BYTES, window_mask
from repro.energy.encoders import _TRANSFORMS, EncodeOutcome


class ReferenceEncoder:
    """Bit-cube twin of a :class:`~repro.energy.LineEncoder`.

    Copies the encoder's parameters (word size, transforms, energy
    prices, restriction) but keeps its own selector state, so the two
    can be fed the same writes and compared after each one.
    """

    def __init__(self, encoder) -> None:
        self.word_bits = encoder.word_bits
        self.n_words = encoder.n_words
        self.transforms = encoder.transforms
        self.energy = encoder.energy
        self.restricted = encoder.restricted
        self.masks = np.stack(
            [_TRANSFORMS[t](self.word_bits) for t in self.transforms]
        )
        self.flag_bits = encoder.flag_bits
        self.flag_patterns = np.array(
            [
                [(t >> bit) & 1 for bit in range(self.flag_bits - 1, -1, -1)]
                for t in range(len(self.transforms))
            ],
            dtype=np.uint8,
        ).reshape(len(self.transforms), self.flag_bits)
        self.flags = encoder.flags.copy()

    def decode(self, physical: int, stored: np.ndarray) -> np.ndarray:
        words = stored.reshape(self.n_words, self.word_bits)
        return (words ^ self.masks[self.flags[physical]]).reshape(-1)

    def encode(
        self,
        physical: int,
        stored: np.ndarray,
        logical: np.ndarray,
        start: int,
        size: int,
        compressed: bool,
    ) -> EncodeOutcome:
        words = logical.reshape(self.n_words, self.word_bits)
        flags = self.flags[physical]
        if size == LINE_BYTES:
            chosen = np.arange(self.n_words)
        else:
            in_window = window_mask(start, size).reshape(
                self.n_words, self.word_bits
            )
            chosen = np.flatnonzero(in_window.all(axis=1))
        if chosen.size and len(self.transforms) > 1:
            if self.restricted and not compressed:
                new = np.zeros(chosen.size, dtype=np.uint8)
            else:
                stored_words = stored.reshape(
                    self.n_words, self.word_bits
                )[chosen]
                new = self._choose(
                    words[chosen], stored_words, flags[chosen]
                )
            old = flags[chosen]
            set_flips, reset_flips = self._flag_flips(old, new)
            flags[chosen] = new
            encoded_words = int(np.count_nonzero(new))
        else:
            set_flips = reset_flips = encoded_words = 0
        target = (words ^ self.masks[flags]).reshape(-1)
        return EncodeOutcome(target, set_flips, reset_flips, encoded_words)

    def _choose(
        self,
        logical_words: np.ndarray,
        stored_words: np.ndarray,
        old_flags: np.ndarray,
    ) -> np.ndarray:
        candidates = logical_words[:, None, :] ^ self.masks[None, :, :]
        stored = stored_words[:, None, :]
        sets = ((candidates == 1) & (stored == 0)).sum(axis=2)
        resets = ((candidates == 0) & (stored == 1)).sum(axis=2)
        cost = (
            sets * self.energy.set_pj_per_bit
            + resets * self.energy.reset_pj_per_bit
        )
        if self.flag_bits:
            old_patterns = self.flag_patterns[old_flags]
            flag_sets = (
                (self.flag_patterns[None, :, :] == 1)
                & (old_patterns[:, None, :] == 0)
            ).sum(axis=2)
            flag_resets = (
                (self.flag_patterns[None, :, :] == 0)
                & (old_patterns[:, None, :] == 1)
            ).sum(axis=2)
            cost = cost + (
                flag_sets * self.energy.set_pj_per_bit
                + flag_resets * self.energy.reset_pj_per_bit
            )
        return np.argmin(cost, axis=1).astype(np.uint8)

    def _flag_flips(
        self, old: np.ndarray, new: np.ndarray
    ) -> tuple[int, int]:
        if not self.flag_bits:
            return 0, 0
        old_bits = self.flag_patterns[old]
        new_bits = self.flag_patterns[new]
        set_flips = int(((new_bits == 1) & (old_bits == 0)).sum())
        reset_flips = int(((new_bits == 0) & (old_bits == 1)).sum())
        return set_flips, reset_flips
