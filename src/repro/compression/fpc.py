"""Frequent Pattern Compression (FPC).

FPC (Alameldeen and Wood, ISCA 2004 -- the paper's reference [15])
compresses a line word-by-word: each 4-byte word is matched against a
small set of frequently occurring patterns and replaced by a 3-bit
prefix plus the minimal payload needed to reconstruct it.

========= ======================================== =============
prefix    pattern                                   payload bits
========= ======================================== =============
``000``   run of 1..8 zero words                    3 (run length)
``001``   4-bit sign-extended word                  4
``010``   one-byte sign-extended word               8
``011``   halfword sign-extended word               16
``100``   halfword padded with a zero halfword      16
``101``   two halfwords, each a sign-extended byte  16
``110``   word of four repeated bytes               8
``111``   uncompressed word                         32
========= ======================================== =============

This matches Table I of the PCM paper: a 4-byte chunk compresses to as
few as 3 bits (a zero word absorbed into a run) and decompression takes
5 cycles.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat

import numpy as np

from .base import (
    LINE_SIZE_BYTES,
    CompressionError,
    CompressionResult,
    Compressor,
)

_WORD_BYTES = 4
_WORDS_PER_LINE = LINE_SIZE_BYTES // _WORD_BYTES
_BYTE_ORDER = "little"

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

#: Payload width in bits for every prefix (a zero run stores its length).
_PAYLOAD_BITS = (3, 4, 8, 16, 16, 16, 8, 32)

#: The single encoding id FPC reports (the bitstream is self-describing).
ENC_FPC = 0

_UNPACK_SIGNED = struct.Struct(f"<{_WORDS_PER_LINE}i").unpack

# -- batch kernel tables (module level: instances stay state-free) --------
#: Lower bounds of the categories the batch kernel sorts 16-bit halves
#: into: 0 | 1..7 | 8..0x7F | 0x80..0x7FFF | 0x8000..0xFF7F |
#: 0xFF80..0xFFF7 | 0xFFF8..0xFFFE | 0xFFFF (categories 0..7).
_HALF_BOUNDS = (0x1, 0x8, 0x80, 0x8000, 0xFF80, 0xFFF8, 0xFFFF)
#: Category of every halfword value (64 KiB).
_HALF_CATEGORY = np.searchsorted(
    np.array(_HALF_BOUNDS), np.arange(1 << 16), side="right"
).astype(np.uint8)


def _pair_prefix(high: int, low: int) -> int:
    """The prefix of the word ``high:low`` on every pattern but REP.

    Which of these patterns a word fits depends only on its halves'
    categories, so one representative per category fills the table.
    """
    word = (high << 16) | low
    signed = word - (1 << 32) if word >> 31 else word
    if not word:
        return _PREFIX_ZERO_RUN
    for prefix, bits in ((_PREFIX_SE4, 4), (_PREFIX_SE8, 8), (_PREFIX_SE16, 16)):
        if -(1 << (bits - 1)) <= signed < 1 << (bits - 1):
            return prefix
    if not low:
        return _PREFIX_HI_HALF
    if all((half + 0x80) & 0xFFFF < 0x100 for half in (high, low)):
        return _PREFIX_TWO_BYTES
    return _PREFIX_UNCOMPRESSED


#: Prefix by the word's two category bytes read as one little-endian
#: u16 (``high << 8 | low``), REP aside (the one pattern that relates
#: the two halves).
_PAIR_PREFIX = np.zeros(1 << 11, dtype=np.intp)
_PAIR_PREFIX[[high << 8 | low for high in range(8) for low in range(8)]] = [
    _pair_prefix(high, low)
    for high in (0, *_HALF_BOUNDS)
    for low in (0, *_HALF_BOUNDS)
]
#: Code bits by prefix; a zero word's bits are set where its run code sits.
_CODE_BITS = np.array([0] + [_PREFIX_BITS + bits for bits in _PAYLOAD_BITS[1:]])
#: Per prefix: ``prefix << payload bits``, down shift, mask and low-byte
#: mask; a word's code is ``prefix | (word >> down) & mask | word &
#: low byte``.  A zero word carries its run code as its value.
_CODE_PREFIX, _CODE_DOWN, _CODE_MASK, _CODE_LOW_BYTE = np.array(
    [
        (_PREFIX_ZERO_RUN << 3, 0, 0x7, 0),
        (_PREFIX_SE4 << 4, 0, 0xF, 0),
        (_PREFIX_SE8 << 8, 0, 0xFF, 0),
        (_PREFIX_SE16 << 16, 0, 0xFFFF, 0),
        (_PREFIX_HI_HALF << 16, 16, 0xFFFF, 0),
        (_PREFIX_TWO_BYTES << 16, 8, 0xFF00, 0xFF),
        (_PREFIX_REPEATED << 8, 0, 0xFF, 0),
        (_PREFIX_UNCOMPRESSED << 32, 0, 0xFFFFFFFF, 0),
    ],
    dtype=np.uint64,
).T
_WORD_INDEX = np.arange(_WORDS_PER_LINE, dtype=np.int8)
_WORD_BEFORE = _WORD_INDEX - 1


class _BitReader:
    """MSB-first bit reader over a packed payload."""

    def __init__(self, payload: bytes, bit_count: int) -> None:
        self._value = int.from_bytes(payload, "big")
        self._total = len(payload) * 8
        # A payload shorter than the advertised bit count is corrupt;
        # clamping makes every subsequent read fail loudly.
        self._limit = min(bit_count, self._total)
        self._position = 0

    def read(self, width: int) -> int:
        if self._position + width > self._limit:
            raise CompressionError("fpc: truncated bitstream")
        shift = self._total - self._position - width
        self._position += width
        return (self._value >> shift) & ((1 << width) - 1)


class FPCCompressor(Compressor):
    """Frequent Pattern Compression line compressor."""

    name = "fpc"
    decompression_latency_cycles = 5
    encoding_space = 1  # the bitstream is self-describing

    def compress(self, data: bytes) -> CompressionResult:
        """Compress one 64-byte line (see :class:`Compressor`).

        The 16 words are unpacked as signed ints, classified with
        range tests, and shifted into one int bitstream.  The stream
        starts from a sentinel 1 bit, so its bit count is its length.
        Each code is the literal ``prefix << payload_bits`` or'd with
        the payload (``0x10`` is prefix 001 over a 4-bit payload).
        """
        self._check_input(data)
        value = 1
        run = 0
        for word in _UNPACK_SIGNED(data):
            if not word:
                run += 1
                if run == _MAX_ZERO_RUN:
                    value = (value << 6) | (run - 1)
                    run = 0
                continue
            if run:
                # Prefix 000 followed by the 3-bit run length.
                value = (value << 6) | (run - 1)
                run = 0
            if -0x8 <= word < 0x8:
                value = (value << 7) | 0x10 | (word & 0xF)
            elif -0x80 <= word < 0x80:
                value = (value << 11) | 0x200 | (word & 0xFF)
            elif -0x8000 <= word < 0x8000:
                value = (value << 19) | 0x30000 | (word & 0xFFFF)
            elif not word & 0xFFFF:
                value = (value << 19) | 0x40000 | ((word >> 16) & 0xFFFF)
            elif -0x800000 <= word < 0x800000 and (word + 0x80) & 0xFFFF < 0x100:
                # Both halfwords sign-extend from a byte.
                value = (
                    (value << 19) | 0x50000
                    | ((word >> 8) & 0xFF00) | (word & 0xFF)
                )
            elif word & 0xFFFFFF == (word >> 8) & 0xFFFFFF:
                value = (value << 11) | 0x600 | (word & 0xFF)
            else:
                value = (value << 35) | 0x700000000 | (word & 0xFFFFFFFF)
        if run:
            value = (value << 6) | (run - 1)
        bit_count = value.bit_length() - 1
        pad = -bit_count % 8
        payload = ((value ^ (1 << bit_count)) << pad).to_bytes(
            (bit_count + pad) // 8, "big"
        )
        return CompressionResult(self.name, ENC_FPC, bit_count, payload)

    def plan_batch(self, lines):
        """Size-first batch kernel (see :meth:`Compressor.plan_batch`).

        Prefixes are numbered in match order, so a word's prefix is the
        smallest one it fits.  Every pattern but REP depends only on
        the categories of the word's two halves (a 64 KiB table), so a
        category-pair table gives the prefix, and REP (110) caps it.
        A zero run is cut into codes of up to 8 zeros, each placed on
        its chunk's *last* zero: its length is then the distance from
        the row's last non-zero word (a ``maximum.accumulate``).  The
        run's other zeros take no bits, so the code widths sum to each
        row's size.  ``fill`` packs the chosen rows' codes into one
        stream of u64 words.
        """
        n_rows = len(lines)
        blob = b"".join(lines)
        words = np.frombuffer(blob, dtype="<u4").reshape(n_rows, -1)
        categories = _HALF_CATEGORY.take(np.frombuffer(blob, dtype="<u2"))
        prefixes = np.minimum(
            _PAIR_PREFIX.take(categories.view("<u2")),
            7 - (words == (words & 0xFF) * np.uint32(0x01010101)).ravel(),
        ).reshape(n_rows, -1)
        zero = prefixes == _PREFIX_ZERO_RUN
        last_nonzero = np.maximum.accumulate(_WORD_INDEX * ~zero - zero, axis=1)
        run_index = (_WORD_BEFORE - last_nonzero) & (_MAX_ZERO_RUN - 1)
        zero_next = np.zeros_like(zero)
        zero_next[:, :-1] = zero[:, 1:]
        run_ends = zero & ((run_index == _MAX_ZERO_RUN - 1) | ~zero_next)
        code_bits = _CODE_BITS.take(prefixes) + (_PREFIX_BITS + 3) * run_ends
        size_bits = code_bits.sum(axis=1)
        # A run's code is 000 and its length less one.
        values = (words | (run_index * run_ends).astype(np.uint32)).astype(np.uint64)

        def fill(rows: np.ndarray) -> list[CompressionResult]:
            prefix = prefixes[rows]
            chosen = values[rows]
            codes = (
                _CODE_PREFIX.take(prefix)
                | ((chosen >> _CODE_DOWN.take(prefix)) & _CODE_MASK.take(prefix))
                | (chosen & _CODE_LOW_BYTE.take(prefix))
            )
            # The rows' streams are laid end to end, each padded to a
            # whole byte: the pad widens the next row's first code with
            # leading zeros.
            widths = code_bits[rows]
            sizes = size_bits[rows]
            padded = (sizes + 7) & ~7
            widths[1:, 0] += (padded - sizes)[:-1]
            # Each code's last bit lands at bit ``end - 1`` of the
            # MSB-first stream (after one spare u64): its low bits go
            # into that word, any spill into the word before.  Codes
            # never share a bit, so adding them into words is or-ing.
            last = np.cumsum(widths.ravel()) + 63
            shift = (last & 63).astype(np.uint64)
            word = last >> 6
            codes = codes.ravel()
            stream = np.zeros(int(word[-1]) + 1, dtype=np.uint64)
            np.add.at(stream, word, codes << (np.uint64(63) - shift))
            np.add.at(stream, word - 1, (codes >> shift) >> np.uint64(1))
            packed = stream[1:].astype(">u8").tobytes()
            sizes = sizes.tolist()
            ends = list(accumulate((padded >> 3).tolist()))
            payloads = [packed[start:end] for start, end in zip([0, *ends], ends)]
            return list(
                map(CompressionResult, repeat(self.name), repeat(ENC_FPC), sizes, payloads)
            )

        return size_bits, fill

    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the 64-byte line (see :class:`Compressor`)."""
        self._check_result(result)
        reader = _BitReader(result.payload, result.size_bits)
        words: list[int] = []
        while len(words) < _WORDS_PER_LINE:
            prefix = reader.read(_PREFIX_BITS)
            words.extend(self._decode_word(reader, prefix))
        if len(words) != _WORDS_PER_LINE:
            raise CompressionError("fpc: bitstream decodes to a wrong word count")
        return b"".join(word.to_bytes(_WORD_BYTES, _BYTE_ORDER) for word in words)

    def _decode_word(self, reader: _BitReader, prefix: int) -> list[int]:
        if prefix == _PREFIX_ZERO_RUN:
            run = reader.read(3) + 1
            return [0] * run
        if prefix == _PREFIX_SE4:
            return [self._sign_extend(reader.read(4), 4)]
        if prefix == _PREFIX_SE8:
            return [self._sign_extend(reader.read(8), 8)]
        if prefix == _PREFIX_SE16:
            return [self._sign_extend(reader.read(16), 16)]
        if prefix == _PREFIX_HI_HALF:
            return [reader.read(16) << 16]
        if prefix == _PREFIX_TWO_BYTES:
            high = self._sign_extend_16(reader.read(8))
            low = self._sign_extend_16(reader.read(8))
            return [((high & 0xFFFF) << 16) | (low & 0xFFFF)]
        if prefix == _PREFIX_REPEATED:
            byte = reader.read(8)
            return [byte * 0x01010101]
        if prefix == _PREFIX_UNCOMPRESSED:
            return [reader.read(32)]
        raise CompressionError(f"fpc: invalid prefix {prefix:03b}")

    @staticmethod
    def _sign_extend(value: int, bits: int) -> int:
        if value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value & 0xFFFFFFFF

    @staticmethod
    def _sign_extend_16(value: int) -> int:
        if value >= 0x80:
            value -= 0x100
        return value & 0xFFFF
