"""Base-Delta-Immediate (BDI) compression.

BDI (Pekhimenko et al., PACT 2012 -- the paper's reference [16]) exploits
the low dynamic range of the words in a memory line: it stores one word
as the *base* and the remaining words as narrow *deltas* from that base.
Two special encodings handle all-zero lines and lines made of a single
repeated 8-byte value.

For a 64-byte line the encodings and their sizes are:

======== ================================ ==========
encoding layout                            size
======== ================================ ==========
ZEROS    (nothing; the line is zero)       1 byte
REP8     one 8-byte value                  8 bytes
B8D1     8-byte base + 8 x 1-byte deltas   16 bytes
B4D1     4-byte base + 16 x 1-byte deltas  20 bytes
B8D2     8-byte base + 8 x 2-byte deltas   24 bytes
B2D1     2-byte base + 32 x 1-byte deltas  34 bytes
B4D2     4-byte base + 16 x 2-byte deltas  36 bytes
B8D4     8-byte base + 8 x 4-byte deltas   40 bytes
UNCOMP   raw line                          64 bytes
======== ================================ ==========

This matches Table I of the PCM paper ("compression size: 1..40 bytes",
decompression latency 1 cycle).  The first word of the line is used as
the base; deltas are signed and must fit the delta width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import (
    LINE_SIZE_BYTES,
    CompressionError,
    CompressionResult,
    Compressor,
)

_BYTE_ORDER = "little"
_UNSIGNED_DTYPE = {8: "<u8", 4: "<u4", 2: "<u2"}
_SIGNED_DTYPE = {8: "<i8", 4: "<i4", 2: "<i2"}
#: Little-endian signed dtype used to pack a delta array of each width.
_DELTA_DTYPE = {1: "<i1", 2: "<i2", 4: "<i4"}


@dataclass(frozen=True)
class _Variant:
    """One base+delta geometry."""

    encoding: int
    name: str
    base_bytes: int
    delta_bytes: int

    @property
    def word_count(self) -> int:
        return LINE_SIZE_BYTES // self.base_bytes

    @property
    def compressed_bytes(self) -> int:
        # Base word plus one delta per word.  The base word's own delta
        # is always zero but is still stored: this keeps the delta array
        # position-regular, matching the BDI hardware layout and the
        # canonical sizes (16/20/24/34/36/40 bytes for a 64-byte line).
        return self.base_bytes + self.word_count * self.delta_bytes


#: Encoding identifiers.  They fit the paper's 5-bit metadata field.
ENC_UNCOMPRESSED = 0
ENC_ZEROS = 1
ENC_REP8 = 2

_VARIANTS = (
    _Variant(3, "b8d1", base_bytes=8, delta_bytes=1),
    _Variant(4, "b4d1", base_bytes=4, delta_bytes=1),
    _Variant(5, "b8d2", base_bytes=8, delta_bytes=2),
    _Variant(6, "b2d1", base_bytes=2, delta_bytes=1),
    _Variant(7, "b4d2", base_bytes=4, delta_bytes=2),
    _Variant(8, "b8d4", base_bytes=8, delta_bytes=4),
)
_VARIANT_BY_ENCODING = {variant.encoding: variant for variant in _VARIANTS}
#: Variants ordered by compressed size, smallest first.
_VARIANTS_BY_SIZE = tuple(sorted(_VARIANTS, key=lambda v: v.compressed_bytes))


class BDICompressor(Compressor):
    """Base-Delta-Immediate line compressor."""

    name = "bdi"
    decompression_latency_cycles = 1
    encoding_space = 9  # uncompressed, zeros, rep8, six base+delta variants

    def compress(self, data: bytes) -> CompressionResult:
        """Compress one 64-byte line (see :class:`Compressor`).

        The wrapped delta array for each base width is computed once
        (numpy, whole-line); every variant's delta-fit check then
        reduces to two scalar bound comparisons, and the winning
        payload is packed with ``ndarray.astype(...).tobytes()``
        instead of per-delta ``int.to_bytes`` calls.
        """
        self._check_input(data)
        if type(data) is not bytes:
            # Buffer-like lines (bytearray, memoryview) get the same
            # immutable bytes payloads as compress_batch.
            data = bytes(data)

        if data == bytes(LINE_SIZE_BYTES):
            return CompressionResult(self.name, ENC_ZEROS, 8, b"\x00")

        if data[:8] * (LINE_SIZE_BYTES // 8) == data:
            return CompressionResult(self.name, ENC_REP8, 64, data[:8])

        # width -> (wrapped deltas, min, max); filled lazily since the
        # smallest variants usually decide the outcome.
        bounds: dict[int, tuple[np.ndarray, int, int]] = {}
        for variant in _VARIANTS_BY_SIZE:
            width = variant.base_bytes
            entry = bounds.get(width)
            if entry is None:
                # Deltas wrap modulo the word width: the hardware adds
                # them back with wraparound arithmetic on decompression,
                # so the modular value only has to fit the delta field.
                words = np.frombuffer(data, dtype=_UNSIGNED_DTYPE[width])
                deltas = (words - words[0]).view(_SIGNED_DTYPE[width])
                entry = bounds[width] = (
                    deltas, int(deltas.min()), int(deltas.max())
                )
            deltas, lowest, highest = entry
            limit = 1 << (8 * variant.delta_bytes - 1)
            if lowest >= -limit and highest < limit:
                # In-range astype narrowing is exact two's complement,
                # identical to int.to_bytes(..., signed=True) per delta.
                payload = (
                    data[:width]
                    + deltas.astype(_DELTA_DTYPE[variant.delta_bytes]).tobytes()
                )
                return CompressionResult(
                    self.name,
                    variant.encoding,
                    variant.compressed_bytes * 8,
                    payload,
                )

        return CompressionResult(
            self.name, ENC_UNCOMPRESSED, LINE_SIZE_BYTES * 8, data
        )

    def compress_batch(self, lines) -> list[CompressionResult]:
        """Batched :meth:`compress`: delta-fit checks over ``(K, n)`` matrices.

        The zero/rep8 screens and every variant's wrapped-delta bounds
        are computed for the whole batch at once; rows fall through the
        variants in the same smallest-first order as the serial path,
        so each row's winner (and payload bytes) is value-identical to
        ``compress`` on that line alone.
        """
        if not lines:
            return []
        for data in lines:
            self._check_input(data)
        raw = [data if type(data) is bytes else bytes(data) for data in lines]
        blob = b"".join(raw)
        n_rows = len(raw)
        byte_matrix = np.frombuffer(blob, dtype=np.uint8).reshape(
            n_rows, LINE_SIZE_BYTES
        )
        results: list[CompressionResult | None] = [None] * n_rows

        zero_rows = ~byte_matrix.any(axis=1)
        words8 = np.frombuffer(blob, dtype="<u8").reshape(n_rows, -1)
        rep8_rows = (words8 == words8[:, :1]).all(axis=1) & ~zero_rows
        pending = ~(zero_rows | rep8_rows)

        # width -> (wrapped deltas (K, n), per-row min, per-row max);
        # filled lazily exactly like the serial path.
        bounds: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for variant in _VARIANTS_BY_SIZE:
            if not pending.any():
                break
            width = variant.base_bytes
            entry = bounds.get(width)
            if entry is None:
                words = np.frombuffer(blob, dtype=_UNSIGNED_DTYPE[width]).reshape(
                    n_rows, -1
                )
                deltas = (words - words[:, :1]).view(_SIGNED_DTYPE[width])
                entry = bounds[width] = (
                    deltas, deltas.min(axis=1), deltas.max(axis=1)
                )
            deltas, lowest, highest = entry
            limit = 1 << (8 * variant.delta_bytes - 1)
            fits = pending & (lowest >= -limit) & (highest < limit)
            dtype = _DELTA_DTYPE[variant.delta_bytes]
            for row in np.flatnonzero(fits):
                payload = raw[row][:width] + deltas[row].astype(dtype).tobytes()
                results[row] = CompressionResult(
                    self.name,
                    variant.encoding,
                    variant.compressed_bytes * 8,
                    payload,
                )
            pending &= ~fits

        for row in np.flatnonzero(zero_rows):
            results[row] = CompressionResult(self.name, ENC_ZEROS, 8, b"\x00")
        for row in np.flatnonzero(rep8_rows):
            results[row] = CompressionResult(self.name, ENC_REP8, 64, raw[row][:8])
        for row in np.flatnonzero(pending):
            results[row] = CompressionResult(
                self.name, ENC_UNCOMPRESSED, LINE_SIZE_BYTES * 8, raw[row]
            )
        return results

    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the 64-byte line (see :class:`Compressor`)."""
        self._check_result(result)
        encoding = result.encoding

        if encoding == ENC_UNCOMPRESSED:
            if len(result.payload) != LINE_SIZE_BYTES:
                raise CompressionError("bdi: bad uncompressed payload size")
            return bytes(result.payload)
        if encoding == ENC_ZEROS:
            return bytes(LINE_SIZE_BYTES)
        if encoding == ENC_REP8:
            if len(result.payload) != 8:
                raise CompressionError("bdi: bad rep8 payload size")
            return bytes(result.payload) * (LINE_SIZE_BYTES // 8)

        variant = _VARIANT_BY_ENCODING.get(encoding)
        if variant is None:
            raise CompressionError(f"bdi: unknown encoding {encoding}")
        return self._decode_variant(result.payload, variant)

    @staticmethod
    def variant_sizes() -> dict[str, int]:
        """Compressed size in bytes for every base+delta geometry."""
        return {v.name: v.compressed_bytes for v in _VARIANTS_BY_SIZE}

    def _decode_variant(self, payload: bytes, variant: _Variant) -> bytes:
        expected = variant.compressed_bytes
        if len(payload) != expected:
            raise CompressionError(
                f"bdi: {variant.name} payload must be {expected} bytes, "
                f"got {len(payload)}"
            )
        base = int.from_bytes(payload[: variant.base_bytes], _BYTE_ORDER)
        words = []
        offset = variant.base_bytes
        for _ in range(variant.word_count):
            delta = int.from_bytes(
                payload[offset : offset + variant.delta_bytes],
                _BYTE_ORDER,
                signed=True,
            )
            # Reconstruct modulo the word width: compression guarantees
            # the delta fits, so this is exact for valid payloads.
            words.append((base + delta) % (1 << (8 * variant.base_bytes)))
            offset += variant.delta_bytes
        return b"".join(
            word.to_bytes(variant.base_bytes, _BYTE_ORDER) for word in words
        )
