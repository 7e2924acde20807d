"""CachingCompressor: LRU behaviour, counters, and transparency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import BestOfCompressor, CachingCompressor


def _line(fill: int) -> bytes:
    return bytes([fill]) * 64


@pytest.fixture()
def cache():
    return CachingCompressor(BestOfCompressor(), capacity=3)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        CachingCompressor(BestOfCompressor(), capacity=0)
    with pytest.raises(ValueError, match="capacity"):
        CachingCompressor(BestOfCompressor(), capacity=-1)


def test_hit_and_miss_counters(cache):
    cache.compress(_line(1))
    cache.compress(_line(2))
    cache.compress(_line(1))
    cache.compress(_line(1))
    assert (cache.misses, cache.hits) == (2, 2)
    assert len(cache) == 2


def test_hits_return_the_memoized_result_object(cache):
    first = cache.compress(_line(7))
    assert cache.compress(_line(7)) is first


def test_lru_evicts_least_recently_used(cache):
    for fill in (1, 2, 3):
        cache.compress(_line(fill))
    cache.compress(_line(1))  # touch 1: now 2 is the LRU entry
    cache.compress(_line(4))  # evicts 2
    assert len(cache) == 3
    hits, misses = cache.hits, cache.misses
    cache.compress(_line(2))  # miss: 2 was evicted (and 3 goes next)
    assert cache.misses == misses + 1
    cache.compress(_line(1))
    cache.compress(_line(4))
    assert cache.hits == hits + 2


def test_results_match_the_inner_compressor(cache):
    rng = np.random.default_rng(5)
    inner = BestOfCompressor()
    for _ in range(20):
        line = rng.bytes(64)
        assert cache.compress(line) == inner.compress(line)
        assert cache.compress(line) == inner.compress(line)  # hit path too


def test_buffer_inputs_are_snapshotted(cache):
    payload = bytearray(_line(9))
    result = cache.compress(payload)
    payload[0] ^= 0xFF  # mutating the caller's buffer must not corrupt
    assert cache.compress(_line(9)) is result


def test_clear_drops_entries_but_keeps_counters(cache):
    cache.compress(_line(1))
    cache.compress(_line(1))
    cache.clear()
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (1, 1)
    cache.compress(_line(1))
    assert cache.misses == 2


def test_pickle_round_trip(cache):
    """Pickle/copy probe dunders via __getattr__ before __dict__ exists.

    The delegating __getattr__ must raise AttributeError for ``inner``
    and dunder lookups instead of recursing (regression: unpickling an
    empty instance looked up ``__setstate__`` -> ``self.inner`` ->
    ``__getattr__`` forever).
    """
    import copy
    import pickle

    cache.compress(_line(1))
    cache.compress(_line(1))
    restored = pickle.loads(pickle.dumps(cache))
    assert (restored.hits, restored.misses) == (cache.hits, cache.misses)
    assert restored.capacity == cache.capacity
    assert len(restored) == len(cache)
    # The restored wrapper still works end-to-end: hit on the restored
    # entry, delegation to the restored inner compressor intact.
    result = restored.compress(_line(1))
    assert restored.hits == cache.hits + 1
    assert restored.decompress(result) == _line(1)
    assert restored.encode_metadata(result) == cache.encode_metadata(result)
    # deepcopy exercises the same protocol probes.
    duplicate = copy.deepcopy(cache)
    assert duplicate.compress(_line(1)) == cache.compress(_line(1))


def test_getattr_raises_for_inner_and_dunders(cache):
    """Protocol probes must fail cleanly, never delegate or recurse."""
    empty = CachingCompressor.__new__(CachingCompressor)  # no __dict__ state
    with pytest.raises(AttributeError):
        _ = empty.inner
    with pytest.raises(AttributeError):
        _ = empty.__deepcopy__
    # Non-dunder misses on a fully built wrapper still report the
    # missing attribute instead of recursing.
    with pytest.raises(AttributeError):
        _ = cache.does_not_exist


def test_wrapper_is_transparent(cache):
    inner = cache.inner
    assert cache.name == inner.name
    assert cache.decompression_latency_cycles == inner.decompression_latency_cycles
    assert cache.encoding_space == inner.encoding_space
    assert cache.members is inner.members  # __getattr__ delegation
    result = cache.compress(_line(3))
    assert cache.decompress(result) == _line(3)
    # The bound metadata codecs round-trip like the inner ones.
    encoded = cache.encode_metadata(result)
    assert encoded == inner.encode_metadata(result)
    assert cache.decode_metadata(encoded) == inner.decode_metadata(encoded)


class _CountingBestOf(BestOfCompressor):
    """Best-of that records which contents it was asked to compress."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def compress(self, data):
        self.asked.append(bytes(data))
        return super().compress(data)

    def compress_batch(self, lines):
        self.asked.extend(bytes(data) for data in lines)
        return super().compress_batch(lines)


def test_a_miss_takes_the_handed_result_and_still_counts():
    inner = _CountingBestOf()
    cache = CachingCompressor(inner, capacity=2)
    handed = {_line(1): BestOfCompressor().compress(_line(1))}
    cache.hand_off(handed)
    assert cache.compress(_line(1)) is handed[_line(1)]
    assert cache.compress(_line(2)) == BestOfCompressor().compress(_line(2))
    cache.drop_handed()
    assert inner.asked == [_line(2)]
    assert (cache.hits, cache.misses) == (0, 2)
    assert list(cache._entries) == [_line(1), _line(2)]
    cache.compress(_line(3))  # LRU evicts line 1 exactly as before
    assert list(cache._entries) == [_line(2), _line(3)]


def test_batch_misses_take_handed_results_and_batch_the_rest():
    inner = _CountingBestOf()
    cache = CachingCompressor(inner, capacity=4)
    reference = CachingCompressor(BestOfCompressor(), capacity=4)
    lines = [_line(fill) for fill in (1, 2, 1, 3, 4, 5, 2)]
    cache.hand_off({_line(2): BestOfCompressor().compress(_line(2)),
                    _line(5): BestOfCompressor().compress(_line(5))})
    got = cache.compress_batch(lines)
    cache.drop_handed()
    assert got == reference.compress_batch(lines)
    assert inner.asked == [_line(1), _line(3), _line(4)]
    assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
    assert list(cache._entries) == list(reference._entries)


def test_handed_results_are_never_pickled(cache):
    import pickle

    cache.hand_off({_line(1): BestOfCompressor().compress(_line(1))})
    restored = pickle.loads(pickle.dumps(cache))
    assert restored._handed == {}
    # A wrapper pickled before the field existed restores it empty.
    legacy = CachingCompressor.__new__(CachingCompressor)
    state = restored.__dict__.copy()
    del state["_handed"]
    legacy.__setstate__(state)
    assert legacy._handed == {}
    assert legacy.compress(_line(4)) == BestOfCompressor().compress(_line(4))
