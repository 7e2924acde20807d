"""Shardable logical address space: ranges, shard maps, translation.

The paper evaluates one bank group with one contiguous address space;
the service mode (:mod:`repro.service`) simulates a *fleet* of them.
The bridge is this module: a :class:`ShardMap` partitions the logical
line space ``[0, total_lines)`` into contiguous per-shard
:class:`AddressRange`\\ s, and translates a global line number (what a
request stream uses) into its owning shard and local line (what that
shard's controller sees).

The design invariant that keeps everything bit-identical: a shard is a
*complete* address space of its own.  Each shard is a plain controller
over local lines ``[0, len(range))`` -- the same code, the same
Start-Gap rotation, the same correction state -- so a shard's results
are exactly those of an independent single-bank controller of that
size replaying the same sub-stream.  Sharding is pure routing: the
fleet's front door (:class:`~repro.service.MemoryService`,
:class:`~repro.service.ShardedController`, the fuzz driver) translates
each request with :meth:`ShardMap.to_local`, and nothing below it
knows the global space exists.

Seeds derive per shard via :func:`shard_seeds`: a 1-shard map reuses
the base seed unchanged (so a 1-shard service reproduces the existing
golden digests bit-for-bit), while a K-shard map spawns independent
seeds through :func:`repro.rng.spawn_seeds`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rng import spawn_seeds


@dataclass(frozen=True)
class AddressRange:
    """A half-open range ``[start, stop)`` of logical line numbers."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("range start cannot be negative")
        if self.stop <= self.start:
            raise ValueError(
                f"range [{self.start}, {self.stop}) must be non-empty"
            )

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, line: int) -> bool:
        return self.start <= line < self.stop


class ShardMap:
    """Contiguous, balanced partition of ``[0, total_lines)`` into shards.

    The first ``total_lines % shards`` shards hold one extra line, so
    shard sizes differ by at most one and the partition is fully
    determined by ``(total_lines, shards)`` -- two processes given the
    same pair always agree on routing.  Translation is O(1) arithmetic.
    """

    def __init__(self, total_lines: int, shards: int) -> None:
        if total_lines < 1:
            raise ValueError("need at least one logical line")
        if shards < 1:
            raise ValueError("need at least one shard")
        if shards > total_lines:
            raise ValueError(
                f"cannot split {total_lines} lines into {shards} shards "
                "(a shard would own no lines)"
            )
        self.total_lines = total_lines
        self.shards = shards
        base, extra = divmod(total_lines, shards)
        ranges = []
        start = 0
        for shard in range(shards):
            size = base + (1 if shard < extra else 0)
            ranges.append(AddressRange(start, start + size))
            start += size
        self.ranges: tuple[AddressRange, ...] = tuple(ranges)
        # Boundaries for O(1) arithmetic routing: the first `extra`
        # shards are (base+1)-sized, the rest base-sized.
        self._base = base
        self._extra = extra
        self._pivot = extra * (base + 1)  # first line owned by a base-sized shard

    def __len__(self) -> int:
        return self.shards

    def lines_of(self, shard: int) -> int:
        """How many logical lines shard ``shard`` owns."""
        return len(self.ranges[shard])

    def shard_of(self, line: int) -> int:
        """The shard owning a global line number (O(1))."""
        if not 0 <= line < self.total_lines:
            raise IndexError(
                f"line {line} outside address space [0, {self.total_lines})"
            )
        if line < self._pivot:
            return line // (self._base + 1)
        return self._extra + (line - self._pivot) // self._base

    def to_local(self, line: int) -> tuple[int, int]:
        """Global line -> ``(shard, local line)``."""
        shard = self.shard_of(line)
        return shard, line - self.ranges[shard].start

    def shard_seeds(self, seed: int) -> list[int]:
        """Deterministic per-shard seeds derived from one base seed."""
        return shard_seeds(seed, self.shards)

    def partition(self, writes) -> list[list]:
        """Route an iterable of ``(line, data)`` pairs into per-shard lists.

        Each shard's list holds ``(local_line, data)`` pairs in stream
        order -- exactly the sub-stream an independent controller of
        that shard's size would replay.  Accepts ``WriteBack``-shaped
        objects (``.line`` / ``.data``) as well as bare pairs.
        """
        buckets: list[list] = [[] for _ in range(self.shards)]
        for request in writes:
            if hasattr(request, "line"):
                line, data = request.line, request.data
            else:
                line, data = request
            shard, local = self.to_local(line)
            buckets[shard].append((local, data))
        return buckets

    def partition_trace(self, trace) -> list:
        """Split a :class:`~repro.traces.trace.Trace` into per-shard traces.

        Sub-traces keep the workload name, use local addresses, and are
        sized to the shard's line count, so each drops straight into a
        single-bank :class:`~repro.lifetime.LifetimeSimulator`.
        """
        from ..traces.trace import Trace, WriteBack

        parts = [
            Trace(workload=trace.workload, n_lines=self.lines_of(shard))
            for shard in range(self.shards)
        ]
        for write in trace:
            shard, local = self.to_local(write.line)
            parts[shard].append(WriteBack(line=local, data=write.data))
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardMap(total_lines={self.total_lines}, shards={self.shards})"
        )


def shard_seeds(seed: int, shards: int) -> list[int]:
    """Per-shard controller seeds derived from one base seed.

    A single shard keeps the base seed *unchanged* -- that is what makes
    a 1-shard service bit-identical to the monolithic controller (and
    keeps the golden-trace digests valid).  Multiple shards get
    independent seeds via :func:`repro.rng.spawn_seeds`, so shard
    endurance draws and workload streams never correlate.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards == 1:
        return [seed]
    return spawn_seeds(seed, shards)
