"""Per-line metadata (Section III-B).

Each line carries 13 bits of compression metadata plus a 1-bit
compressed flag:

* 6-bit **start pointer** -- byte offset of the compression window;
* 5-bit **encoding information** -- which compressor/variant to use on
  decompression (see :meth:`repro.compression.BestOfCompressor.encode_metadata`);
* 2-bit **saturating counter (SC)** -- the Figure 8 heuristic state;
* 1-bit **compressed flag** -- stored in one of ECP-6's 3 spare bits in
  the ECC-chip slice.

The paper stores the 13 bits at the head of the line and shows their
update rate is far below the data's (start pointer: once per 2^16 bank
writes; coding/SC: once per 4-5 writes), so metadata wear is not the
lifetime limiter.  We model metadata as wear-exempt state and account
its sizes exactly.

A region's metadata lives in one :class:`LineTable`: five numpy
columns, one entry per physical line, so the batched write path reads
and commits a whole wave with array operations while the serial path
reads and writes single entries of the same columns.
:class:`LineMetadata` is the value type: what ``pack``/``unpack``
work on and what a per-line read of the table returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

START_POINTER_BITS = 6
ENCODING_BITS = 5
SC_BITS = 2
#: Total per-line metadata stored in the data chips.
METADATA_BITS = START_POINTER_BITS + ENCODING_BITS + SC_BITS

SC_MAX = (1 << SC_BITS) - 1


@dataclass(slots=True)
class LineMetadata:
    """Mutable per-line metadata record."""

    start_pointer: int = 0  # window start, in bytes
    encoding: int = 0
    sc: int = 0
    compressed: bool = False
    #: Byte size of the data currently stored (compressed or 64).  The
    #: paper forwards this with each read so the controller knows
    #: ``Old_S`` at write time without extra memory traffic.
    stored_size: int = 64

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ValueError on out-of-range fields."""
        if not 0 <= self.start_pointer < (1 << START_POINTER_BITS):
            raise ValueError(f"start pointer {self.start_pointer} out of range")
        if not 0 <= self.encoding < (1 << ENCODING_BITS):
            raise ValueError(f"encoding {self.encoding} out of range")
        if not 0 <= self.sc <= SC_MAX:
            raise ValueError(f"saturating counter {self.sc} out of range")
        if not 1 <= self.stored_size <= 64:
            raise ValueError(f"stored size {self.stored_size} out of range")

    @property
    def sc_saturated(self) -> bool:
        """Whether the saturating counter is at its maximum."""
        return self.sc == SC_MAX

    def increment_sc(self) -> None:
        """Saturating increment of SC."""
        self.sc = min(self.sc + 1, SC_MAX)

    def decrement_sc(self) -> None:
        """Saturating decrement of SC."""
        self.sc = max(self.sc - 1, 0)

    def pack(self) -> int:
        """Pack the 13 in-line metadata bits (excludes the flag bit)."""
        self.validate()
        return (
            self.start_pointer
            | (self.encoding << START_POINTER_BITS)
            | (self.sc << (START_POINTER_BITS + ENCODING_BITS))
        )

    @classmethod
    def unpack(cls, packed: int, compressed: bool, stored_size: int) -> "LineMetadata":
        """Inverse of :meth:`pack`."""
        if not 0 <= packed < (1 << METADATA_BITS):
            raise ValueError(f"packed metadata {packed} out of range")
        return cls(
            start_pointer=packed & ((1 << START_POINTER_BITS) - 1),
            encoding=(packed >> START_POINTER_BITS) & ((1 << ENCODING_BITS) - 1),
            sc=packed >> (START_POINTER_BITS + ENCODING_BITS),
            compressed=compressed,
            stored_size=stored_size,
        )


class LineTable:
    """The metadata of every physical line, held as five numpy columns.

    ``start_pointer``, ``encoding``, ``sc`` and ``stored_size`` are
    ``uint8`` columns and ``compressed`` a ``bool`` column, all indexed
    by physical line.  Every write goes through the columns; indexing
    the table (``table[line]``) returns a :class:`LineMetadata`
    *snapshot* holding plain Python ``int``/``bool`` values, so
    mutating it does not write back.
    """

    __slots__ = ("start_pointer", "encoding", "sc", "compressed", "stored_size")

    def __init__(self, n_lines: int) -> None:
        self.start_pointer = np.zeros(n_lines, dtype=np.uint8)
        self.encoding = np.zeros(n_lines, dtype=np.uint8)
        self.sc = np.zeros(n_lines, dtype=np.uint8)
        self.compressed = np.zeros(n_lines, dtype=bool)
        self.stored_size = np.full(n_lines, 64, dtype=np.uint8)

    @classmethod
    def from_records(cls, records: Iterable[LineMetadata]) -> "LineTable":
        """A table holding ``records`` in line order."""
        records = list(records)
        table = cls(len(records))
        for line, record in enumerate(records):
            table[line] = record
        return table

    def __len__(self) -> int:
        return len(self.sc)

    def __getitem__(self, line: int) -> LineMetadata:
        return LineMetadata(
            start_pointer=self.start_pointer.item(line),
            encoding=self.encoding.item(line),
            sc=self.sc.item(line),
            compressed=self.compressed.item(line),
            stored_size=self.stored_size.item(line),
        )

    def __setitem__(self, line: int, record: LineMetadata) -> None:
        record.validate()
        self.start_pointer[line] = record.start_pointer
        self.encoding[line] = record.encoding
        self.sc[line] = record.sc
        self.compressed[line] = record.compressed
        self.stored_size[line] = record.stored_size

    def __iter__(self) -> Iterator[LineMetadata]:
        columns = (
            self.start_pointer, self.encoding, self.sc, self.compressed,
            self.stored_size,
        )
        for pointer, encoding, sc, compressed, size in zip(
            *(column.tolist() for column in columns)
        ):
            yield LineMetadata(pointer, encoding, sc, compressed, size)
