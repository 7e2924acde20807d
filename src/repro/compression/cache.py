"""Content-addressed compression cache.

PCM write streams are heavily content-redundant: traces are replayed
with ``itertools.cycle`` and the synthetic workloads draw lines from
finite content pools, so the same 64-byte payloads recur constantly
(CARAM, arXiv:2007.13661, builds a whole RRAM cache design on this
observation).  :class:`CachingCompressor` exploits that redundancy by
memoizing ``compress`` results in a bounded LRU map keyed on the raw
line content, turning the dominant per-write cost into a dict lookup.

A caller that already holds the result for a content it is about to
write -- the DRAM tier's admission probe runs the same uncached
best-of compressor -- can hand it over with :meth:`hand_off` for the
duration of one call.  A miss then takes the handed result instead of
recompressing; it is still counted and inserted exactly like any other
miss, so the counters, the LRU order and every result are unchanged.

The wrapper is transparent: it returns the *same* frozen
:class:`~repro.compression.base.CompressionResult` objects the inner
compressor produced (results are immutable, so sharing is safe), and
it delegates every other attribute -- ``members``, ``compress_all``,
``decompress``, metadata codecs -- to the wrapped compressor, so it
can stand in for :class:`~repro.compression.best.BestOfCompressor`
anywhere in the engine.
"""

from __future__ import annotations

from collections import OrderedDict

from .base import CompressionResult, Compressor

#: Placeholder cache value for a batch entry whose compression result is
#: still outstanding (see :meth:`CachingCompressor.compress_batch`).  It
#: only ever lives inside ``_entries`` during a single batch call.
_PENDING = object()


class CachingCompressor:
    """Bounded content-addressed LRU cache around any :class:`Compressor`.

    Parameters
    ----------
    inner:
        The compressor whose ``compress`` results are memoized.
    capacity:
        Maximum number of distinct line contents retained.  Must be
        positive -- a zero capacity should be expressed by not
        wrapping the compressor at all.
    """

    def __init__(self, inner: Compressor, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.inner = inner
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[bytes, CompressionResult] = OrderedDict()
        #: Results handed over for one call (see :meth:`hand_off`);
        #: derived data, so never pickled.
        self._handed: dict[bytes, CompressionResult] = {}
        # Mirror the identity attributes so the wrapper is a drop-in,
        # and bind the hot metadata codecs directly (the __getattr__
        # fallback is an order of magnitude slower per access).
        self.name = inner.name
        self.decompression_latency_cycles = inner.decompression_latency_cycles
        self.encoding_space = inner.encoding_space
        for codec in ("encode_metadata", "decode_metadata"):
            bound = getattr(inner, codec, None)
            if bound is not None:
                setattr(self, codec, bound)

    def compress(self, data: bytes) -> CompressionResult:
        """Return the memoized result for ``data``, compressing on miss."""
        # Real bytes keys are used as-is (the overwhelmingly common
        # case); anything buffer-like is snapshotted so a caller
        # mutating it later cannot corrupt the cache.
        key = data if type(data) is bytes else bytes(data)
        entries = self._entries
        result = entries.get(key)
        if result is not None:
            self.hits += 1
            entries.move_to_end(key)
            return result
        self.misses += 1
        result = self._handed.get(key)
        if result is None:
            result = self.inner.compress(key)
        entries[key] = result
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return result

    def compress_batch(self, lines) -> list[CompressionResult]:
        """Batched :meth:`compress` with exact serial cache semantics.

        The probe/insert/evict/move-to-end bookkeeping is replayed key
        by key in batch order -- placeholders stand in for results not
        yet computed -- so the hit/miss counters and the LRU order end
        up exactly as the per-line loop would leave them (a key evicted
        mid-batch re-misses when it recurs, just like serial).  All
        missing contents are then compressed in one
        ``inner.compress_batch`` call and the placeholders are
        resolved; repeated misses of one content share a single frozen
        result, which is indistinguishable from serial's equal-valued
        recomputes.  The counters are bumped once per call, and a batch
        that hits on every key returns straight after the replay.
        """
        if not lines:
            return []
        entries = self._entries
        capacity = self.capacity
        keys = [data if type(data) is bytes else bytes(data) for data in lines]
        slots: list = [None] * len(keys)
        to_compute: dict[bytes, None] = {}
        pending_in_cache: set[bytes] = set()
        hits = 0
        for index, key in enumerate(keys):
            result = entries.get(key)
            if result is not None:
                hits += 1
                entries.move_to_end(key)
                slots[index] = key if result is _PENDING else result
                continue
            to_compute.setdefault(key)
            entries[key] = _PENDING
            pending_in_cache.add(key)
            slots[index] = key
            if len(entries) > capacity:
                evicted_key, evicted_value = entries.popitem(last=False)
                if evicted_value is _PENDING:
                    pending_in_cache.discard(evicted_key)
        self.hits += hits
        self.misses += len(keys) - hits
        if not to_compute:
            # All hits (the steady state): every slot holds a result.
            return slots
        handed = self._handed
        computed = {key: handed[key] for key in to_compute if key in handed}
        remaining = [key for key in to_compute if key not in computed]
        try:
            if remaining:
                computed.update(
                    zip(remaining, self.inner.compress_batch(remaining))
                )
        except BaseException:
            # A placeholder must never outlive the batch call: a later
            # compress() would hand the sentinel out as a result.
            for key in pending_in_cache:
                entries.pop(key, None)
            raise
        for key in pending_in_cache:
            entries[key] = computed[key]
        return [
            slot if isinstance(slot, CompressionResult) else computed[slot]
            for slot in slots
        ]

    def hand_off(self, results: dict[bytes, CompressionResult]) -> None:
        """Offer precomputed results to the misses of the next call.

        ``results`` maps line contents to what ``inner.compress`` would
        return for them.  The caller must :meth:`drop_handed` once the
        call that needs them returns (in a ``finally``), so nothing
        handed outlives it.
        """
        self._handed = results

    def drop_handed(self) -> None:
        """Forget the results offered by :meth:`hand_off`."""
        self._handed = {}

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_handed", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._handed = {}

    def __getattr__(self, attribute: str):
        # Everything not defined here (decompress, compress_all,
        # members, encode_metadata, decode_metadata, ...) is the inner
        # compressor's business.  Two lookups must fail instead of
        # delegating: ``inner`` itself (pickle/copy build an empty
        # instance and probe attributes *before* restoring __dict__, so
        # delegating would recurse forever) and dunders (protocol
        # probes like __getstate__/__reduce_ex__/__deepcopy__ must see
        # this object's own protocol surface, not the inner one's).
        if attribute == "inner" or (
            attribute.startswith("__") and attribute.endswith("__")
        ):
            raise AttributeError(
                f"{type(self).__name__!s} object has no attribute {attribute!r}"
            )
        return getattr(self.inner, attribute)
