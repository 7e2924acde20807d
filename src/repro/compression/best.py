"""Best-of-N compression, as used by the paper's memory controller.

The controller runs BDI and FPC in parallel on every write-back and
keeps whichever output is smaller (Section III, Figure 3).  The 5-bit
per-line "encoding information" metadata field records both which
compressor won and its internal encoding, so a read can route the
payload to the right decompressor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import LINE_SIZE_BYTES, CompressionError, CompressionResult, Compressor
from .bdi import BDICompressor
from .fpc import FPCCompressor

#: Width of the per-line encoding metadata field (Section III-B).
ENCODING_METADATA_BITS = 5

#: Smallest batch that takes the size-first numpy kernel.  The kernel
#: has a fixed cost of about 110 us per call; the members' ``compress``
#: costs about 30-40 us per line, so below this size looping it is
#: cheaper (EXPERIMENTS.md, "Size-first best-of batch kernel").
BATCH_CROSSOVER = 6


def _smallest(members, data) -> CompressionResult:
    """The smallest member result for one line, first member on ties."""
    best = members[0].compress(data)
    for member in members[1:]:
        result = member.compress(data)
        if result.size_bits < best.size_bits:
            best = result
    return best


class BestOfCompressor(Compressor):
    """Runs several compressors and keeps the smallest output.

    Ties are broken in member order, so put the compressor with the
    cheaper decompression first (BDI: 1 cycle vs FPC: 5 cycles).

    The 5-bit per-line metadata field is partitioned among the members
    by their declared ``encoding_space``: member ``i`` owns the value
    range ``[base_i, base_i + space_i)``.  The default BDI+FPC pair uses
    10 of the 32 values, leaving room for extra members such as FVC.
    """

    name = "best"
    decompression_latency_cycles = 0  # depends on the winning member

    def __init__(self, compressors: Sequence[Compressor] | None = None) -> None:
        if compressors is None:
            compressors = (BDICompressor(), FPCCompressor())
        if not compressors:
            raise ValueError("BestOfCompressor needs at least one member")
        self._compressors = tuple(compressors)
        self._by_name = {c.name: c for c in self._compressors}
        if len(self._by_name) != len(self._compressors):
            raise ValueError("member compressor names must be unique")
        self._encoding_bases = []
        base = 0
        for compressor in self._compressors:
            self._encoding_bases.append(base)
            base += compressor.encoding_space
        if base > (1 << ENCODING_METADATA_BITS):
            raise ValueError(
                f"member encoding spaces need {base} values, more than the "
                f"{ENCODING_METADATA_BITS}-bit metadata field holds"
            )

    @property
    def members(self) -> tuple[Compressor, ...]:
        """The member compressors, in tie-break order."""
        return self._compressors

    def compress(self, data: bytes) -> CompressionResult:
        """Compress one 64-byte line (see :class:`Compressor`)."""
        return _smallest(self._compressors, data)

    def compress_batch(self, lines) -> list[CompressionResult]:
        """Batched :meth:`compress`, sizes first.

        Each member's :meth:`~Compressor.plan_batch` sizes every row;
        the smallest size picks each row's winner, the first member on
        ties, and only the winner packs that row's payload.
        Below :data:`BATCH_CROSSOVER` lines the numpy kernels' fixed
        cost loses, so the members' ``compress`` runs row by row
        instead.  Both paths return what
        :meth:`compress` returns for each line.
        """
        members = self._compressors
        if len(lines) < BATCH_CROSSOVER:
            return [_smallest(members, data) for data in lines]
        if set(map(len, lines)) != {LINE_SIZE_BYTES}:
            for data in lines:
                self._check_input(data)
        plans = [member.plan_batch(lines) for member in members]
        smallest, _ = plans[0]
        winners = np.zeros(len(lines), dtype=np.intp)
        for index, (size_bits, _) in enumerate(plans[1:], 1):
            smaller = size_bits < smallest
            winners[smaller] = index
            smallest = np.minimum(smallest, size_bits)
        out: list = [None] * len(lines)
        for index, (_, fill) in enumerate(plans):
            rows = np.flatnonzero(winners == index)
            if rows.size:
                for row, result in zip(rows.tolist(), fill(rows)):
                    out[row] = result
        return out

    def compress_all(self, data: bytes) -> dict[str, CompressionResult]:
        """Results from every member, keyed by compressor name."""
        return {c.name: c.compress(data) for c in self._compressors}

    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the 64-byte line (see :class:`Compressor`)."""
        member = self._by_name.get(result.algorithm)
        if member is None:
            raise CompressionError(
                f"best: no member compressor named {result.algorithm!r}"
            )
        return member.decompress(result)

    def decompression_latency(self, result: CompressionResult) -> int:
        """Decompression latency in cycles for a specific result."""
        member = self._by_name.get(result.algorithm)
        if member is None:
            raise CompressionError(
                f"best: no member compressor named {result.algorithm!r}"
            )
        return member.decompression_latency_cycles

    def encode_metadata(self, result: CompressionResult) -> int:
        """Pack a result into the 5-bit encoding metadata value."""
        for index, member in enumerate(self._compressors):
            if member.name == result.algorithm:
                if result.encoding >= member.encoding_space:
                    raise CompressionError(
                        f"best: encoding {result.encoding} of "
                        f"{result.algorithm!r} exceeds its declared space "
                        f"of {member.encoding_space}"
                    )
                return self._encoding_bases[index] + result.encoding
        raise CompressionError(
            f"best: no member compressor named {result.algorithm!r}"
        )

    def encode_metadata_batch(self, results) -> list[int]:
        """:meth:`encode_metadata` over a sequence of results."""
        codes = {
            (member.name, encoding): base + encoding
            for member, base in zip(self._compressors, self._encoding_bases)
            for encoding in range(member.encoding_space)
        }
        try:
            return [codes[result.algorithm, result.encoding] for result in results]
        except KeyError:
            for result in results:
                self.encode_metadata(result)  # raises the specific error
            raise CompressionError("best: result encoding out of range") from None

    def decode_metadata(self, metadata: int) -> tuple[Compressor, int]:
        """Unpack a metadata value into (member compressor, encoding)."""
        if not 0 <= metadata < (1 << ENCODING_METADATA_BITS):
            raise CompressionError(f"best: metadata {metadata} out of range")
        for index in reversed(range(len(self._compressors))):
            base = self._encoding_bases[index]
            if metadata >= base:
                member = self._compressors[index]
                encoding = metadata - base
                if encoding >= member.encoding_space:
                    raise CompressionError(
                        f"best: metadata {metadata} names no member encoding"
                    )
                return member, encoding
        raise CompressionError(f"best: metadata {metadata} names no member")
