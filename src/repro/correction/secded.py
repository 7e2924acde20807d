"""SECDED (72,64): the conventional DRAM-style ECC reference.

The paper argues (Section II-C) that SECDED is a poor fit for PCM: it
corrects a single error per 64-bit word, its code bits are
write-intensive, and PCM accumulates stuck-at faults over time.  We
include it as the comparison point -- one (72,64) Hamming+parity code
per 8-byte word, eight words per line, using the full 64-bit ECC-chip
slice.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .base import DEFAULT_BLOCK_BITS, CorrectionScheme, normalize_faults


class SECDED(CorrectionScheme):
    """Per-64-bit-word single-error-correcting, double-error-detecting code."""

    name = "secded"

    def __init__(
        self, word_bits: int = 64, block_bits: int = DEFAULT_BLOCK_BITS
    ) -> None:
        super().__init__(block_bits)
        if word_bits <= 0 or block_bits % word_bits != 0:
            raise ValueError("block size must divide evenly into code words")
        self.word_bits = word_bits
        self.words = block_bits // word_bits
        # (72,64): 8 check bits per 64-bit word.
        self.metadata_bits = self.words * 8
        self.deterministic_capability = 1

    #: At most one fault per code word.
    fault_ceiling = property(lambda self: self.words)

    def can_correct(self, fault_positions: Iterable[int]) -> bool:
        """Correctable iff every code word holds at most one fault."""
        faults = normalize_faults(fault_positions, self.block_bits)
        if faults.size == 0:
            return True
        words = faults // self.word_bits
        _, counts = np.unique(words, return_counts=True)
        return bool(counts.max() <= 1)


class HammingSECDED:
    """Bit-exact (72,64) Hamming + overall-parity codec.

    The feasibility view in :class:`SECDED` is what the lifetime
    simulator needs; this codec implements the actual encode / decode /
    correct path so the reference scheme is complete end to end:

    * 64 data bits are spread over positions 1..71 (1-indexed), with
      check bits at the power-of-two positions and an overall parity
      bit at position 0;
    * decode recomputes the syndrome: a nonzero syndrome with bad
      overall parity is a correctable single-bit error; a nonzero
      syndrome with good parity is a detected-but-uncorrectable double
      error.
    """

    DATA_BITS = 64
    CHECK_BITS = 7  # positions 1,2,4,...,64
    TOTAL_BITS = 72  # data + checks + overall parity

    def __init__(self) -> None:
        # Map data-bit index -> codeword position (skipping powers of 2).
        self._data_positions = [
            position
            for position in range(1, 72)
            if position & (position - 1) != 0
        ]
        assert len(self._data_positions) == self.DATA_BITS

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Produce the 72-bit codeword for 64 data bits."""
        if data_bits.shape != (self.DATA_BITS,):
            raise ValueError(f"expected {self.DATA_BITS} data bits")
        code = np.zeros(self.TOTAL_BITS, dtype=np.uint8)
        for index, position in enumerate(self._data_positions):
            code[position] = data_bits[index]
        for check in range(self.CHECK_BITS):
            mask = 1 << check
            covered = [p for p in range(1, 72) if p & mask]
            code[mask] = np.bitwise_xor.reduce(code[covered]) ^ code[mask]
        code[0] = np.bitwise_xor.reduce(code[1:])
        return code

    def decode(self, codeword: np.ndarray) -> tuple[np.ndarray, str]:
        """Recover the data bits; returns (data, status).

        Status is ``"ok"``, ``"corrected"`` (single error fixed) or
        ``"detected"`` (double error: data returned as-is, unreliable).
        """
        if codeword.shape != (self.TOTAL_BITS,):
            raise ValueError(f"expected {self.TOTAL_BITS} codeword bits")
        code = codeword.astype(np.uint8).copy()
        syndrome = 0
        for check in range(self.CHECK_BITS):
            mask = 1 << check
            covered = [p for p in range(1, 72) if p & mask]
            if np.bitwise_xor.reduce(code[covered]):
                syndrome |= mask
        parity_ok = np.bitwise_xor.reduce(code) == 0

        status = "ok"
        if syndrome and not parity_ok:
            code[syndrome] ^= 1  # single-bit error at the syndrome position
            status = "corrected"
        elif syndrome and parity_ok:
            status = "detected"
        elif not syndrome and not parity_ok:
            code[0] ^= 1  # the parity bit itself flipped
            status = "corrected"
        data = np.array(
            [code[position] for position in self._data_positions], dtype=np.uint8
        )
        return data, status
