"""Loop-based reference compressors for differential validation.

These are the pure-Python FPC and BDI codecs the oracle
(:mod:`repro.validate.reference`) stores lines with: word-at-a-time
encoders exactly as they existed before the numpy hot-path rewrite
(PR 2), plus matching loop-based decoders and the best-of selection /
5-bit metadata packing the fast :class:`repro.compression.BestOfCompressor`
performs.  Everything here works on plain Python ints and bytes -- no
numpy -- so a divergence from the production kernels is always a bug in
exactly one of the two implementations.

Do not optimize this file; its entire value is that it stays slow and
obviously correct.  ``tests/compression/test_vectorized_equivalence.py``
pins the production line and batch kernels to these encoders.
"""

from __future__ import annotations

from ..compression.base import (
    LINE_SIZE_BYTES,
    CompressionError,
    CompressionResult,
)

_WORD_BYTES = 4
_WORDS_PER_LINE = LINE_SIZE_BYTES // _WORD_BYTES
_BYTE_ORDER = "little"

# -- FPC constants (mirrors repro.compression.fpc) --------------------------

_PREFIX_BITS = 3
_PREFIX_ZERO_RUN = 0b000
_PREFIX_SE4 = 0b001
_PREFIX_SE8 = 0b010
_PREFIX_SE16 = 0b011
_PREFIX_HI_HALF = 0b100
_PREFIX_TWO_BYTES = 0b101
_PREFIX_REPEATED = 0b110
_PREFIX_UNCOMPRESSED = 0b111
_MAX_ZERO_RUN = 8

#: FPC's single self-describing encoding value.
ENC_FPC = 0

# -- BDI constants (mirrors repro.compression.bdi) --------------------------

ENC_BDI_UNCOMPRESSED = 0
ENC_BDI_ZEROS = 1
ENC_BDI_REP8 = 2

#: (encoding, base_bytes, delta_bytes), ordered by compressed size.
_BDI_VARIANTS = (
    (3, 8, 1),  # b8d1: 16 bytes
    (4, 4, 1),  # b4d1: 20 bytes
    (5, 8, 2),  # b8d2: 24 bytes
    (6, 2, 1),  # b2d1: 34 bytes
    (7, 4, 2),  # b4d2: 36 bytes
    (8, 8, 4),  # b8d4: 40 bytes
)
_BDI_VARIANT_BY_ENCODING = {
    encoding: (base, delta) for encoding, base, delta in _BDI_VARIANTS
}

#: 5-bit metadata layout of the default BestOfCompressor((BDI, FPC)):
#: BDI owns values [0, 9), FPC owns value 9.
_BDI_METADATA_BASE = 0
_FPC_METADATA_BASE = 9


class _BitWriter:
    """Append-only MSB-first bit buffer (pre-rewrite original)."""

    def __init__(self) -> None:
        self._value = 0
        self.bit_count = 0

    def write(self, value: int, width: int) -> None:
        self._value = (self._value << width) | (value & ((1 << width) - 1))
        self.bit_count += width

    def to_bytes(self) -> bytes:
        pad = (-self.bit_count) % 8
        return ((self._value << pad)).to_bytes((self.bit_count + pad) // 8, "big")


class _BitReader:
    """MSB-first reader over a packed FPC payload."""

    def __init__(self, payload: bytes) -> None:
        self._value = int.from_bytes(payload, "big")
        self._remaining = len(payload) * 8

    def read(self, width: int) -> int:
        if width > self._remaining:
            raise CompressionError("fpc: bitstream exhausted")
        self._remaining -= width
        return (self._value >> self._remaining) & ((1 << width) - 1)


# -- FPC -------------------------------------------------------------------


def _sign_extends(value: int, bits: int) -> bool:
    limit = 1 << (bits - 1)
    return -limit <= value < limit


def _to_signed32(word: int) -> int:
    return word - (1 << 32) if word >= (1 << 31) else word


def _both_halves_byte_extend(word: int) -> bool:
    for half in ((word >> 16) & 0xFFFF, word & 0xFFFF):
        signed = half - (1 << 16) if half >= (1 << 15) else half
        if not _sign_extends(signed, 8):
            return False
    return True


def _repeated_bytes(word: int) -> bool:
    byte = word & 0xFF
    return word == byte * 0x01010101


def _encode_word(writer: _BitWriter, word: int) -> None:
    signed = _to_signed32(word)
    if _sign_extends(signed, 4):
        writer.write(_PREFIX_SE4, _PREFIX_BITS)
        writer.write(signed, 4)
    elif _sign_extends(signed, 8):
        writer.write(_PREFIX_SE8, _PREFIX_BITS)
        writer.write(signed, 8)
    elif _sign_extends(signed, 16):
        writer.write(_PREFIX_SE16, _PREFIX_BITS)
        writer.write(signed, 16)
    elif word & 0xFFFF == 0:
        writer.write(_PREFIX_HI_HALF, _PREFIX_BITS)
        writer.write(word >> 16, 16)
    elif _both_halves_byte_extend(word):
        writer.write(_PREFIX_TWO_BYTES, _PREFIX_BITS)
        writer.write((word >> 16) & 0xFF, 8)
        writer.write(word & 0xFF, 8)
    elif _repeated_bytes(word):
        writer.write(_PREFIX_REPEATED, _PREFIX_BITS)
        writer.write(word & 0xFF, 8)
    else:
        writer.write(_PREFIX_UNCOMPRESSED, _PREFIX_BITS)
        writer.write(word, 32)


def reference_fpc_compress(data: bytes) -> CompressionResult:
    """The original word-at-a-time FPC encoder."""
    words = [
        int.from_bytes(data[offset : offset + _WORD_BYTES], _BYTE_ORDER)
        for offset in range(0, LINE_SIZE_BYTES, _WORD_BYTES)
    ]
    writer = _BitWriter()
    index = 0
    while index < _WORDS_PER_LINE:
        word = words[index]
        if word == 0:
            run = 1
            while (
                index + run < _WORDS_PER_LINE
                and words[index + run] == 0
                and run < _MAX_ZERO_RUN
            ):
                run += 1
            writer.write(_PREFIX_ZERO_RUN, _PREFIX_BITS)
            writer.write(run - 1, 3)
            index += run
            continue
        _encode_word(writer, word)
        index += 1
    return CompressionResult("fpc", ENC_FPC, writer.bit_count, writer.to_bytes())


def _sign_extend_field(value: int, bits: int) -> int:
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value & 0xFFFFFFFF


def reference_fpc_decompress(payload: bytes) -> bytes:
    """Word-at-a-time decode of an FPC bitstream back to 64 bytes."""
    reader = _BitReader(payload)
    words: list[int] = []
    while len(words) < _WORDS_PER_LINE:
        prefix = reader.read(_PREFIX_BITS)
        if prefix == _PREFIX_ZERO_RUN:
            words.extend([0] * (reader.read(3) + 1))
        elif prefix == _PREFIX_SE4:
            words.append(_sign_extend_field(reader.read(4), 4))
        elif prefix == _PREFIX_SE8:
            words.append(_sign_extend_field(reader.read(8), 8))
        elif prefix == _PREFIX_SE16:
            words.append(_sign_extend_field(reader.read(16), 16))
        elif prefix == _PREFIX_HI_HALF:
            words.append(reader.read(16) << 16)
        elif prefix == _PREFIX_TWO_BYTES:
            high = _sign_extend_field(reader.read(8), 8) & 0xFFFF
            low = _sign_extend_field(reader.read(8), 8) & 0xFFFF
            words.append((high << 16) | low)
        elif prefix == _PREFIX_REPEATED:
            words.append(reader.read(8) * 0x01010101)
        else:
            words.append(reader.read(32))
    if len(words) != _WORDS_PER_LINE:
        raise CompressionError("fpc: bitstream decodes to a wrong word count")
    return b"".join(word.to_bytes(_WORD_BYTES, _BYTE_ORDER) for word in words)


# -- BDI -------------------------------------------------------------------


def _line_words(data: bytes, width: int) -> list[int]:
    return [
        int.from_bytes(data[offset : offset + width], _BYTE_ORDER)
        for offset in range(0, LINE_SIZE_BYTES, width)
    ]


def _wrapped_signed_delta(word: int, base: int, width: int) -> int:
    """``word - base`` modulo the word width, reinterpreted as signed."""
    modulus = 1 << (8 * width)
    delta = (word - base) % modulus
    if delta >= modulus // 2:
        delta -= modulus
    return delta


def _try_bdi_variant(data: bytes, base_bytes: int, delta_bytes: int) -> bytes | None:
    words = _line_words(data, base_bytes)
    base = words[0]
    limit = 1 << (8 * delta_bytes - 1)
    deltas = []
    for word in words:
        delta = _wrapped_signed_delta(word, base, base_bytes)
        if not -limit <= delta < limit:
            return None
        deltas.append(delta)
    parts = [data[:base_bytes]]
    parts.extend(
        delta.to_bytes(delta_bytes, _BYTE_ORDER, signed=True) for delta in deltas
    )
    return b"".join(parts)


def reference_bdi_compress(data: bytes) -> CompressionResult:
    """The original sequential BDI encoder."""
    if data == bytes(LINE_SIZE_BYTES):
        return CompressionResult("bdi", ENC_BDI_ZEROS, 8, b"\x00")
    if data[:8] * (LINE_SIZE_BYTES // 8) == data:
        return CompressionResult("bdi", ENC_BDI_REP8, 64, data[:8])
    for encoding, base_bytes, delta_bytes in _BDI_VARIANTS:
        payload = _try_bdi_variant(data, base_bytes, delta_bytes)
        if payload is not None:
            size_bytes = base_bytes + (LINE_SIZE_BYTES // base_bytes) * delta_bytes
            return CompressionResult("bdi", encoding, size_bytes * 8, payload)
    return CompressionResult(
        "bdi", ENC_BDI_UNCOMPRESSED, LINE_SIZE_BYTES * 8, bytes(data)
    )


def reference_bdi_decompress(encoding: int, payload: bytes) -> bytes:
    """Word-at-a-time decode of a BDI payload back to 64 bytes."""
    if encoding == ENC_BDI_UNCOMPRESSED:
        if len(payload) != LINE_SIZE_BYTES:
            raise CompressionError("bdi: bad uncompressed payload size")
        return bytes(payload)
    if encoding == ENC_BDI_ZEROS:
        return bytes(LINE_SIZE_BYTES)
    if encoding == ENC_BDI_REP8:
        if len(payload) != 8:
            raise CompressionError("bdi: bad rep8 payload size")
        return bytes(payload) * (LINE_SIZE_BYTES // 8)
    geometry = _BDI_VARIANT_BY_ENCODING.get(encoding)
    if geometry is None:
        raise CompressionError(f"bdi: unknown encoding {encoding}")
    base_bytes, delta_bytes = geometry
    word_count = LINE_SIZE_BYTES // base_bytes
    expected = base_bytes + word_count * delta_bytes
    if len(payload) != expected:
        raise CompressionError(
            f"bdi: encoding {encoding} payload must be {expected} bytes, "
            f"got {len(payload)}"
        )
    base = int.from_bytes(payload[:base_bytes], _BYTE_ORDER)
    modulus = 1 << (8 * base_bytes)
    words = []
    offset = base_bytes
    for _ in range(word_count):
        delta = int.from_bytes(
            payload[offset : offset + delta_bytes], _BYTE_ORDER, signed=True
        )
        words.append((base + delta) % modulus)
        offset += delta_bytes
    return b"".join(word.to_bytes(base_bytes, _BYTE_ORDER) for word in words)


# -- best-of selection + metadata codec ------------------------------------


def reference_best_compress(data: bytes) -> CompressionResult:
    """Best-of-BDI/FPC with BDI winning ties (the member order of the
    default fast :class:`~repro.compression.BestOfCompressor`)."""
    bdi = reference_bdi_compress(data)
    fpc = reference_fpc_compress(data)
    return bdi if bdi.size_bits <= fpc.size_bits else fpc


def reference_encode_metadata(result: CompressionResult) -> int:
    """Pack a result into the 5-bit per-line encoding metadata value."""
    if result.algorithm == "bdi":
        if not 0 <= result.encoding < _FPC_METADATA_BASE:
            raise CompressionError(f"bdi: encoding {result.encoding} out of range")
        return _BDI_METADATA_BASE + result.encoding
    if result.algorithm == "fpc":
        if result.encoding != ENC_FPC:
            raise CompressionError(f"fpc: encoding {result.encoding} out of range")
        return _FPC_METADATA_BASE
    raise CompressionError(f"no reference member named {result.algorithm!r}")


def reference_decode_metadata(metadata: int) -> tuple[str, int]:
    """Unpack the 5-bit metadata value into (member name, encoding)."""
    if _BDI_METADATA_BASE <= metadata < _FPC_METADATA_BASE:
        return "bdi", metadata - _BDI_METADATA_BASE
    if metadata == _FPC_METADATA_BASE:
        return "fpc", ENC_FPC
    raise CompressionError(f"metadata {metadata} names no reference member")


def reference_decompress(metadata: int, payload: bytes, size_bits: int) -> bytes:
    """Decode a stored window back to the 64-byte line."""
    del size_bits  # both decoders are word-count driven
    algorithm, encoding = reference_decode_metadata(metadata)
    if algorithm == "bdi":
        return reference_bdi_decompress(encoding, payload)
    return reference_fpc_decompress(payload)
