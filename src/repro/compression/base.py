"""Common interfaces for line compressors.

The paper compresses every 64-byte write-back with two hardware
compressors (BDI and FPC) running in parallel and keeps the smaller
output (Section III, Figure 3).  All compressors in this package share
the :class:`Compressor` interface so the memory controller, the traces
package, and the analysis harnesses can treat them uniformly.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence  # noqa: TC003 -- used in signatures
from dataclasses import dataclass, field

#: Size of a memory line (and therefore of every compressor input), in bytes.
LINE_SIZE_BYTES = 64
#: Size of a memory line in bits.
LINE_SIZE_BITS = LINE_SIZE_BYTES * 8


class CompressionError(ValueError):
    """Raised for malformed compressor inputs or undecodable payloads."""


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one memory line.

    Attributes:
        algorithm: Name of the compressor that produced the payload.
        encoding: Compressor-specific encoding identifier.  Together with
            ``algorithm`` this is what the paper stores in the 5-bit
            per-line "encoding information" metadata field.
        size_bits: Exact size of the compressed representation in bits.
        payload: The compressed representation, packed into bytes
            (the final byte is zero-padded when ``size_bits`` is not a
            multiple of eight).
    """

    algorithm: str
    encoding: int
    size_bits: int
    payload: bytes = field(repr=False)

    @property
    def size_bytes(self) -> int:
        """Compressed size rounded up to whole bytes.

        The compression window is byte-granular in our design (it slides
        in 1-byte steps, Section III-A.2), so byte-rounded sizes are what
        the window manager consumes.
        """
        return (self.size_bits + 7) // 8

    @property
    def is_compressed(self) -> bool:
        """Whether the payload is smaller than an uncompressed line."""
        return self.size_bytes < LINE_SIZE_BYTES


class Compressor(abc.ABC):
    """A block compressor operating on whole 64-byte memory lines."""

    #: Human-readable, unique compressor name.
    name: str = "abstract"
    #: Decompression latency in CPU cycles (Table I).
    decompression_latency_cycles: int = 0
    #: Number of distinct ``encoding`` values the compressor emits.
    #: Best-of packs (member, encoding) into the 5-bit metadata field
    #: by summing the members' encoding spaces, so keep this tight.
    encoding_space: int = 1

    @abc.abstractmethod
    def compress(self, data: bytes) -> CompressionResult:
        """Compress one line; always succeeds.

        Implementations must fall back to an "uncompressed" encoding when
        no pattern applies, so ``compress`` never raises for well-sized
        input.

        Raises:
            CompressionError: If ``data`` is not exactly one line.
        """

    @abc.abstractmethod
    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the original 64-byte line from ``result``.

        Raises:
            CompressionError: If the payload is inconsistent with the
                encoding, or the result belongs to another compressor.
        """

    def compress_batch(self, lines: "Sequence[bytes]") -> list[CompressionResult]:
        """Compress a batch of lines; element ``i`` equals ``compress(lines[i])``.

        The base implementation is the per-line loop; vectorized
        compressors override it with a 2-D kernel over the batch axis.
        Overrides must stay *value-identical* to the loop (pinned by
        ``tests/compression/test_batch_equivalence.py``) -- the batched
        write engine relies on it for bit-exact batched/serial parity.
        """
        return [self.compress(data) for data in lines]

    def _check_input(self, data: bytes) -> None:
        if len(data) != LINE_SIZE_BYTES:
            raise CompressionError(
                f"{self.name}: expected a {LINE_SIZE_BYTES}-byte line, "
                f"got {len(data)} bytes"
            )

    def _check_result(self, result: CompressionResult) -> None:
        if result.algorithm != self.name:
            raise CompressionError(
                f"{self.name}: cannot decompress a payload produced by "
                f"{result.algorithm!r}"
            )
