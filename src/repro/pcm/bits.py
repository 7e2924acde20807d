"""Bit-level helpers shared across the PCM model.

A 64-byte memory line is represented in two interchangeable forms:

* ``bytes`` of length 64 -- the architectural view used by compressors
  and the memory controller;
* a numpy ``uint8`` array of 512 zeros/ones -- the cell-level view used
  by the wear model.

Bit ``i`` of the cell-level view is bit ``i % 8`` of byte ``i // 8``
(little-endian bit order), so byte offsets and bit offsets grow in the
same direction.  This matters for the compression window, which is
addressed in bytes but worn in bits.
"""

from __future__ import annotations

import numpy as np


def bytes_to_bits(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Expand bytes into an array of single bits (little-endian order)."""
    array = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(array, bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack an array of single bits (little-endian order) into bytes."""
    if bits.size % 8 != 0:
        raise ValueError(f"bit array length {bits.size} is not a multiple of 8")
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
