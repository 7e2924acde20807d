"""Batched compression must be value-identical to the per-line loop.

``BestOfCompressor.compress_batch`` sizes every row with its members'
numpy plans and packs only the winners; the batch scheduler
(``BatchScheduler.run``) relies on exact equality of every field --
encoding, bit-exact payload, size -- for its batched/serial
bit-identity guarantee.  ``CachingCompressor``
additionally must leave the *cache* (hit/miss counters, LRU key order,
stored values) in exactly the state the serial loop would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    BDICompressor,
    BestOfCompressor,
    CachingCompressor,
    FPCCompressor,
    FVCCompressor,
)
from repro.compression.base import CompressionError
from repro.compression.best import BATCH_CROSSOVER
from repro.compression.cpack import CPackCompressor

LINE = 64


def _crafted_lines() -> list[bytes]:
    """Lines hitting every FPC prefix class and BDI variant."""
    lines = [
        bytes(LINE),                                   # zeros
        bytes.fromhex("deadbeef" * 2) * (LINE // 8),   # rep8
        b"\x01" + bytes(LINE - 1),                     # near-zero / SE4
        (7).to_bytes(4, "little") * (LINE // 4),       # small words
        (0x1234).to_bytes(4, "little") * (LINE // 4),  # halfword
        (0xABCD0000).to_bytes(4, "little") * (LINE // 4),  # hi-half
        (0x00FF00FE).to_bytes(4, "little") * (LINE // 4),  # two bytes
        (0x42424242).to_bytes(4, "little") * (LINE // 4),  # repeated byte
        bytes(range(LINE)),                            # b8d1-ish ramp
        bytes.fromhex("ff" * LINE),                    # all ones
    ]
    # Base + narrow deltas for each BDI width.
    base = int.from_bytes(b"\x11" * 8, "little")
    lines.append(
        b"".join(((base + d) % (1 << 64)).to_bytes(8, "little") for d in range(8))
    )
    lines.append(
        b"".join(
            ((base + d * 300) % (1 << 64)).to_bytes(8, "little") for d in range(8)
        )
    )
    return lines


def _random_lines(count: int, seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    lines = []
    for index in range(count):
        if index % 3 == 0:
            # Low-entropy: narrow deltas, long zero runs.
            row = rng.integers(0, 4, size=LINE, dtype=np.uint8)
        elif index % 3 == 1:
            row = rng.integers(0, 256, size=LINE, dtype=np.uint8)
        else:
            word = rng.integers(0, 2**16, dtype=np.uint64)
            row = np.frombuffer(
                int(word).to_bytes(8, "little") * (LINE // 8), dtype=np.uint8
            ).copy()
            row[rng.integers(0, LINE)] ^= 1
        lines.append(row.tobytes())
    return lines


def _assert_equal_results(batched, serial) -> None:
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.algorithm == want.algorithm
        assert got.encoding == want.encoding
        assert got.size_bits == want.size_bits
        assert got.payload == want.payload


@pytest.mark.parametrize(
    "compressor", [FPCCompressor(), BDICompressor(), BestOfCompressor()],
    ids=["fpc", "bdi", "best"],
)
def test_batch_matches_serial_on_crafted_lines(compressor):
    lines = _crafted_lines()
    _assert_equal_results(
        compressor.compress_batch(lines), [compressor.compress(d) for d in lines]
    )


@pytest.mark.parametrize(
    "compressor", [FPCCompressor(), BDICompressor(), BestOfCompressor()],
    ids=["fpc", "bdi", "best"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_serial_on_random_lines(compressor, seed):
    lines = _random_lines(200, seed)
    _assert_equal_results(
        compressor.compress_batch(lines), [compressor.compress(d) for d in lines]
    )


@pytest.mark.parametrize(
    "members",
    [
        (BDICompressor, FPCCompressor, FVCCompressor),
        (BDICompressor, FPCCompressor, CPackCompressor),
        (FPCCompressor, BDICompressor),
        (FVCCompressor,),
        (CPackCompressor, FPCCompressor),
    ],
    ids=["bdi-fpc-fvc", "bdi-fpc-cpack", "fpc-bdi", "fvc", "cpack-fpc"],
)
@pytest.mark.parametrize(
    "size", [1, BATCH_CROSSOVER - 1, BATCH_CROSSOVER, BATCH_CROSSOVER + 2, 128]
)
def test_non_default_member_sets_batch_row_by_row(members, size):
    """Any member set and order: batch rows equal ``compress`` rows.

    Members without a numpy plan (FVC, C-Pack) size every row from
    their own results, and ties still go to the earlier member.
    """
    compressor = BestOfCompressor(tuple(cls() for cls in members))
    lines = (_crafted_lines() + _random_lines(150, 5))[:max(size, 40)]
    for start in range(0, len(lines), size):
        batch = lines[start : start + size]
        _assert_equal_results(
            compressor.compress_batch(batch),
            [compressor.compress(data) for data in batch],
        )


def test_kernel_tables_stay_off_instances():
    """Compressors are pickled in checkpoints: their kernel tables are
    module-level, so instances carry only what old pickles carry."""
    assert vars(BDICompressor()) == {}
    assert vars(FPCCompressor()) == {}
    assert set(vars(BestOfCompressor())) == {
        "_compressors", "_by_name", "_encoding_bases"
    }


def test_batch_empty_and_single():
    compressor = BestOfCompressor()
    assert compressor.compress_batch([]) == []
    line = bytes(range(LINE))
    _assert_equal_results(
        compressor.compress_batch([line]), [compressor.compress(line)]
    )


def test_batch_rejects_misshaped_lines():
    with pytest.raises(CompressionError):
        BDICompressor().compress_batch([bytes(LINE), bytes(3)])
    with pytest.raises(CompressionError):
        FPCCompressor().compress_batch([bytes(63)])


class _CountingInner(BestOfCompressor):
    """Counts how many lines reach the inner compressor."""

    def __init__(self):
        super().__init__()
        self.lines_compressed = 0

    def compress(self, data):
        self.lines_compressed += 1
        return super().compress(data)

    def compress_batch(self, lines):
        self.lines_compressed += len(lines)
        return super().compress_batch(lines)


def _cache_state(cache: CachingCompressor):
    return (
        cache.hits,
        cache.misses,
        [
            (key, value.payload, value.size_bits)
            for key, value in cache._entries.items()
        ],
    )


@pytest.mark.parametrize("capacity", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("seed", [0, 7])
def test_caching_batch_matches_serial_cache_semantics(capacity, seed):
    """Counters, LRU order, and stored values match the serial loop.

    The sequence deliberately repeats a tiny content pool so batches
    contain duplicate keys, mid-batch evictions, and re-misses of keys
    evicted earlier in the same batch -- every corner of the
    placeholder protocol.
    """
    rng = np.random.default_rng(seed)
    pool = _crafted_lines()[: max(3, capacity + 2)]
    sequence = [pool[int(i)] for i in rng.integers(0, len(pool), size=120)]

    serial = CachingCompressor(_CountingInner(), capacity=capacity)
    batched = CachingCompressor(_CountingInner(), capacity=capacity)

    cursor = 0
    serial_results = []
    batched_results = []
    while cursor < len(sequence):
        size = int(rng.integers(1, 9))
        chunk = sequence[cursor : cursor + size]
        cursor += size
        serial_results.extend(serial.compress(data) for data in chunk)
        batched_results.extend(batched.compress_batch(chunk))
        assert _cache_state(batched) == _cache_state(serial)

    # An all-hit batch (the steady state) returns early; every hit must
    # still be counted and every key moved to the LRU front in order.
    resident = list(serial._entries)[::-1]
    chunk = resident + resident[:1]
    computed = batched.inner.lines_compressed
    serial_results.extend(serial.compress(data) for data in chunk)
    batched_results.extend(batched.compress_batch(chunk))
    assert _cache_state(batched) == _cache_state(serial)
    assert batched.inner.lines_compressed == computed

    _assert_equal_results(batched_results, serial_results)
    # Batched compute of duplicate misses collapses to one inner call
    # per distinct content; it must never exceed the serial count.
    assert batched.inner.lines_compressed <= serial.inner.lines_compressed


def test_caching_batch_then_scalar_interop():
    """A compress() after a batch sees real results, never placeholders."""
    cache = CachingCompressor(BestOfCompressor(), capacity=4)
    lines = _crafted_lines()[:6]
    cache.compress_batch(lines)
    for data in lines:
        result = cache.compress(data)
        assert result.payload == BestOfCompressor().compress(data).payload


def test_caching_batch_error_leaves_no_placeholders():
    cache = CachingCompressor(BestOfCompressor(), capacity=4)
    with pytest.raises(CompressionError):
        cache.compress_batch([bytes(LINE), bytes(5)])
    for value in cache._entries.values():
        assert hasattr(value, "payload"), "placeholder leaked into the cache"
    # And a scalar probe of the rolled-back key recomputes cleanly.
    assert cache.compress(bytes(LINE)).payload == (
        BestOfCompressor().compress(bytes(LINE)).payload
    )
