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
from itertools import repeat

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


# -- batch kernel tables (module level: instances stay state-free) --------
#: Base widths in the order their wrapped deltas sit in the batch
#: kernel's source matrix, after the line's own bytes.
_BATCH_WIDTHS = (8, 4, 2)


def _width_bounds(width: int) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted`` bounds and sizes (bits) for one base width.

    Zigzag (``delta << 1 ^ delta >> (bits - 1)``) maps the deltas that
    fit ``d`` bytes onto ``[0, 2**(8d))``, so the OR of a row's zigzags
    is below that iff every delta fits.  ``searchsorted`` picks the
    narrowest fitting delta and the size table maps it to bits (512
    when none fits).  For 8-byte words an OR of 0 (no delta at all)
    is REP8.
    """
    variants = sorted(
        (v for v in _VARIANTS if v.base_bytes == width),
        key=lambda v: v.delta_bytes,
    )
    bounds = [(1 << (8 * v.delta_bytes)) - 1 for v in variants]
    sizes = [v.compressed_bytes * 8 for v in variants] + [LINE_SIZE_BYTES * 8]
    if width == 8:
        bounds, sizes = [0, *bounds], [64, *sizes]
    return np.array(bounds, dtype=f"<u{width}"), np.array(sizes)


_WIDTH_BOUNDS = {width: _width_bounds(width) for width in _BATCH_WIDTHS}


def _payload_columns(variant: _Variant) -> list[int]:
    """Source-matrix columns of a variant's payload: base, then deltas.

    Delta ``k``'s little-endian low ``d`` bytes are bytes ``k*w ..
    k*w+d-1`` of the width's delta block: narrowing an in-range delta
    keeps exactly those (two's complement).
    """
    width = variant.base_bytes
    block = LINE_SIZE_BYTES * (1 + _BATCH_WIDTHS.index(width))
    return list(range(width)) + [
        block + word * width + byte
        for word in range(LINE_SIZE_BYTES // width)
        for byte in range(variant.delta_bytes)
    ]


#: Every outcome of the batch kernel: (encoding, size in bits, payload
#: columns of the source matrix).  A zero line's byte 0 is its b"\x00".
_OUTCOMES = (
    (ENC_ZEROS, 8, [0]),
    (ENC_REP8, 64, list(range(8))),
    *(
        (v.encoding, v.compressed_bytes * 8, _payload_columns(v))
        for v in _VARIANTS_BY_SIZE
    ),
    (ENC_UNCOMPRESSED, LINE_SIZE_BYTES * 8, list(range(LINE_SIZE_BYTES))),
)
_OUTCOME_ENCODING = np.array([encoding for encoding, _, _ in _OUTCOMES])
_OUTCOME_BITS = np.array([bits for _, bits, _ in _OUTCOMES])
#: Outcome index by compressed size in bytes (sizes are distinct).
_OUTCOME_BY_BYTES = np.zeros(LINE_SIZE_BYTES + 1, dtype=np.intp)
_OUTCOME_BY_BYTES[_OUTCOME_BITS // 8] = np.arange(len(_OUTCOMES))
#: Payload columns per outcome, zero-padded to a whole line.
_OUTCOME_COLUMNS = np.array(
    [columns + [0] * (LINE_SIZE_BYTES - len(columns)) for _, _, columns in _OUTCOMES]
)


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

    def plan_batch(self, lines):
        """Size-first batch kernel (see :meth:`Compressor.plan_batch`).

        Every row's size comes from whole-batch numpy: per base width,
        the OR of the zigzagged wrapped deltas picks the narrowest
        fitting delta; the smallest size over the widths is the
        ladder's first fit (REP8 and a zero line included).  ``fill``
        gathers the chosen rows' payloads in one ``take`` over the line
        bytes and the delta bytes.
        """
        blob = b"".join(lines)
        n_rows = len(lines)
        blocks = [np.ndarray((n_rows, LINE_SIZE_BYTES), np.uint8, blob)]
        size_bits = None
        for width in _BATCH_WIDTHS:
            words = np.ndarray((n_rows, LINE_SIZE_BYTES // width), f"<i{width}", blob)
            # Deltas wrap modulo the word width: the hardware adds them
            # back with wraparound arithmetic on decompression, so the
            # modular value only has to fit the delta field.
            delta = words - words[:, :1]
            blocks.append(delta.view(np.uint8))
            spread = np.bitwise_or.reduce(
                (delta << 1) ^ (delta >> (8 * width - 1)), axis=1
            ).view(f"<u{width}")
            bounds, sizes = _WIDTH_BOUNDS[width]
            fit = sizes.take(bounds.searchsorted(spread))
            if size_bits is None:
                size_bits = fit
                size_bits[(fit == 64) & (words[:, 0] == 0)] = 8  # a zero line
            else:
                size_bits = np.minimum(size_bits, fit)

        def fill(rows: np.ndarray) -> list[CompressionResult]:
            outcome = _OUTCOME_BY_BYTES[size_bits[rows] >> 3]
            source = np.concatenate(blocks, axis=1)
            columns = _OUTCOME_COLUMNS[outcome] + (rows * source.shape[1])[:, None]
            packed = source.ravel().take(columns).tobytes()
            bits = _OUTCOME_BITS.take(outcome).tolist()
            payloads = [
                packed[start : start + size // 8]
                for start, size in zip(range(0, len(packed), LINE_SIZE_BYTES), bits)
            ]
            return list(
                map(
                    CompressionResult,
                    repeat(self.name),
                    _OUTCOME_ENCODING.take(outcome).tolist(),
                    bits,
                    payloads,
                )
            )

        return size_bits, fill

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
