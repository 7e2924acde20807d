"""Compression-window placement and sliding (Section III-A, Figure 4).

Compressed data occupies a contiguous *compression window* inside the
64-byte line.  Windows are byte-granular and wrap around the end of the
line (so intra-line rotation offsets work uniformly).  A window
placement is *feasible* when the correction scheme can handle the
stuck-at faults that fall inside it -- faults outside the window sit
under unused cells and cost nothing.

``find_window`` implements the controller's search: start at a hint
(the line's current pointer, or the bank's rotation offset) and slide
byte-by-byte until a feasible placement appears.  Because most blocks
have fewer faults than the scheme's guaranteed capability, the common
case returns the hint immediately.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..correction import CorrectionScheme
from ..pcm.bits import bits_to_bytes, bytes_to_bits

LINE_BYTES = 64
LINE_BITS = 512


# Module-level placement caches.  They are process-global (shared by
# every simulator in the process) and bounded:
#
# * ``_MASK_CACHE`` / ``_INDEX_CACHE`` / ``_BIT_INDEX_CACHE`` are keyed
#   by ``(start_byte, size_bytes, line_bytes)``, so each holds at most
#   ``line_bytes**2`` entries per line geometry in use (4096 for the
#   standard 64-byte line);
# * ``_PAYLOAD_BITS_CACHE`` is an LRU capped at
#   ``_PAYLOAD_BITS_CACHE_CAPACITY`` payloads.
#
# Bounded is not free: a long-lived process that runs many sweeps keeps
# all four populated for its lifetime.  :func:`clear_window_caches` is
# the lifecycle hook that releases them; the sweep runner calls it on
# teardown (``SweepRunner.run_report``).
_MASK_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
#: Content-addressed LRU of unpacked payload bit arrays (read-only);
#: write streams repeat payloads heavily, so placement skips the
#: bytes->bits unpack on a hit.
_PAYLOAD_BITS_CACHE: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
_PAYLOAD_BITS_CACHE_CAPACITY = 4096


def clear_window_caches() -> None:
    """Release the module-level placement caches.

    Purely a memory-lifecycle hook: the caches are transparent
    memoization, so clearing them never changes behaviour -- entries
    are rebuilt on demand.  Called from sweep-worker teardown so
    long-lived processes do not retain cache memory across sweeps.
    """
    _MASK_CACHE.clear()
    _INDEX_CACHE.clear()
    _BIT_INDEX_CACHE.clear()
    _PAYLOAD_BITS_CACHE.clear()


def _payload_bits(payload: bytes) -> np.ndarray:
    """Cached ``bytes_to_bits(payload)``, read-only."""
    cached = _PAYLOAD_BITS_CACHE.get(payload)
    if cached is not None:
        _PAYLOAD_BITS_CACHE.move_to_end(payload)
        return cached
    bits = bytes_to_bits(payload)
    bits.setflags(write=False)
    _PAYLOAD_BITS_CACHE[payload] = bits
    if len(_PAYLOAD_BITS_CACHE) > _PAYLOAD_BITS_CACHE_CAPACITY:
        _PAYLOAD_BITS_CACHE.popitem(last=False)
    return bits
_INDEX_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_BIT_INDEX_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _window_byte_indices(
    start_byte: int, size_bytes: int, line_bytes: int
) -> np.ndarray:
    """Cached (start + arange(size)) % line byte-index vector, read-only."""
    key = (start_byte, size_bytes, line_bytes)
    indices = _INDEX_CACHE.get(key)
    if indices is None:
        indices = (start_byte + np.arange(size_bytes)) % line_bytes
        indices.setflags(write=False)
        _INDEX_CACHE[key] = indices
    return indices


def _window_bit_indices(
    start_byte: int, size_bytes: int, line_bytes: int
) -> np.ndarray:
    """Cached flat bit-index vector of a byte window, read-only."""
    key = (start_byte, size_bytes, line_bytes)
    indices = _BIT_INDEX_CACHE.get(key)
    if indices is None:
        byte_indices = _window_byte_indices(start_byte, size_bytes, line_bytes)
        indices = (byte_indices[:, None] * 8 + np.arange(8)).ravel()
        indices.setflags(write=False)
        _BIT_INDEX_CACHE[key] = indices
    return indices


def window_mask(start_byte: int, size_bytes: int, line_bytes: int = LINE_BYTES) -> np.ndarray:
    """Boolean cell mask of a (possibly wrapping) byte window.

    Masks are cached (there are only ``line_bytes**2`` of them) and
    returned read-only; copy before mutating.
    """
    if not 0 <= start_byte < line_bytes:
        raise ValueError(f"window start {start_byte} out of range")
    if not 1 <= size_bytes <= line_bytes:
        raise ValueError(f"window size {size_bytes} out of range")
    key = (start_byte, size_bytes, line_bytes)
    mask = _MASK_CACHE.get(key)
    if mask is None:
        byte_indices = _window_byte_indices(start_byte, size_bytes, line_bytes)
        mask = np.zeros((line_bytes, 8), dtype=bool)
        mask[byte_indices] = True
        mask = mask.reshape(-1)
        mask.setflags(write=False)
        _MASK_CACHE[key] = mask
    return mask


def place_bytes(
    base: np.ndarray, payload: bytes, start_byte: int, line_bytes: int = LINE_BYTES
) -> np.ndarray:
    """Lay ``payload`` into a copy of ``base`` bits at a byte window."""
    if len(payload) > line_bytes:
        raise ValueError("payload longer than the line")
    target = base.copy()
    bit_indices = _window_bit_indices(start_byte, len(payload), line_bytes)
    target[bit_indices] = _payload_bits(payload)
    return target


def extract_bytes(
    bits: np.ndarray, start_byte: int, size_bytes: int, line_bytes: int = LINE_BYTES
) -> bytes:
    """Read ``size_bytes`` from a (possibly wrapping) byte window."""
    if size_bytes == 0:
        return b""
    bit_indices = _window_bit_indices(start_byte, size_bytes, line_bytes)
    return bits_to_bytes(bits[bit_indices])


def faults_in_window(
    fault_positions: np.ndarray,
    start_byte: int,
    size_bytes: int,
    line_bytes: int = LINE_BYTES,
) -> np.ndarray:
    """Fault positions falling inside a byte window, window-relative.

    Positions are re-based to the window start so correction schemes
    see a stable coordinate system regardless of where the window sits
    (the scheme's partitioning hardware operates on the windowed data
    as it would on a line).
    """
    if fault_positions.size == 0:
        return fault_positions
    start_bit = start_byte * 8
    size_bits = size_bytes * 8
    relative = (fault_positions - start_bit) % (line_bytes * 8)
    return np.sort(relative[relative < size_bits])


def find_window(
    fault_positions: np.ndarray,
    size_bytes: int,
    scheme: CorrectionScheme,
    start_hint: int = 0,
    line_bytes: int = LINE_BYTES,
) -> int | None:
    """First feasible window start at/after ``start_hint``, or None.

    Feasibility means the correction scheme can mask every fault inside
    the window.  The search wraps over all ``line_bytes`` candidate
    starts, beginning at the hint so stable lines keep their pointer.
    One counting pass (per-byte histogram, circular running sum) sizes
    every start, so only a start whose count of the (distinct) faults
    lies above ``deterministic_capability`` and within ``fault_ceiling``
    asks ``scheme.can_correct``.
    """
    if fault_positions.size <= scheme.deterministic_capability:
        # Any placement works: the scheme guarantees this many faults
        # no matter where they land.
        return start_hint % line_bytes
    if size_bytes == line_bytes:
        # A full-line window sees every fault regardless of start.
        if fault_positions.size > scheme.fault_ceiling:
            return None
        return 0 if scheme.can_correct(fault_positions) else None

    per_byte = np.bincount(fault_positions // 8, minlength=line_bytes)
    running = np.cumsum(np.concatenate(([0], per_byte, per_byte)))
    starts = _window_byte_indices(start_hint % line_bytes, line_bytes, line_bytes)
    counts = running[starts + size_bytes] - running[starts]
    below = counts <= scheme.fault_ceiling
    for start, count in zip(starts[below].tolist(), counts[below].tolist()):
        if count <= scheme.deterministic_capability or scheme.can_correct(
            faults_in_window(fault_positions, start, size_bytes, line_bytes)
        ):
            return start
    return None
