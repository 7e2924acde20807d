"""Batched tier admission probe == probing each write-back in turn.

``HybridController.write_batch`` probes the compressibility of every
distinct content in a batch with one ``compress_batch`` call, then
routes in stream order with those sizes.  A per-request ``write`` loop
probes one line at a time.  Over random batches -- repeated contents,
coalesced rewrites and LRU evictions inside one batch -- both must
produce the same results, tier counters and residents, and leave PCM
in the same cell state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import LINE_BYTES

from tests.tier.test_tier import build_hybrid

N_LINES = 16

#: A small vocabulary, so batches repeat contents and lines: solid and
#: periodic lines write through, random ones are admitted.
_RNG = np.random.default_rng(5)
VOCABULARY = (
    [bytes([b]) * LINE_BYTES for b in (0, 7, 255)]
    + [bytes(_RNG.integers(0, 256, 8, dtype=np.uint8)) * 8 for _ in range(3)]
    + [bytes(_RNG.integers(0, 256, LINE_BYTES, dtype=np.uint8))
       for _ in range(6)]
)

batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, N_LINES - 1),
            st.integers(0, len(VOCABULARY) - 1).map(VOCABULARY.__getitem__),
        ),
        min_size=1,
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)


def _snapshot(hybrid):
    inner = hybrid.inner
    return {
        "tier_stats": hybrid.tier.stats,
        "residents": list(hybrid.tier._resident.items()),
        "refs": dict(hybrid.tier._refs),
        "stats": inner.stats.without_scheduler_telemetry(),
        "stored": inner.memory.stored.copy(),
        "dead": inner.dead.copy(),
    }


@given(batches=batches, capacity=st.integers(1, 4))
@settings(deadline=None, max_examples=40)
def test_batched_probe_matches_per_request_writes(batches, capacity):
    batched = build_hybrid(capacity, seed=3)
    serial = build_hybrid(capacity, seed=3)
    for batch in batches:
        results = batched.write_batch(batch)
        assert results == [serial.write(line, data) for line, data in batch]
        got, want = _snapshot(batched), _snapshot(serial)
        np.testing.assert_array_equal(got.pop("stored"), want.pop("stored"))
        np.testing.assert_array_equal(got.pop("dead"), want.pop("dead"))
        assert got == want
    assert batched.stats.tier_evictions == serial.stats.tier_evictions
    for line in range(N_LINES):
        assert batched.read(line) == serial.read(line)


def test_one_batch_coalesces_evicts_and_rewrites_an_evicted_line():
    """The corner the pre-probe cannot see: a line resident when the
    batch begins, evicted inside it and then rewritten, is probed when
    reached and routed like the per-request loop routes it."""
    noisy = VOCABULARY[-6:]
    batch = [
        (1, noisy[1]),          # admitted (line 0 stays resident)
        (2, noisy[2]),          # admitted: evicts line 0
        (2, noisy[3]),          # coalesced rewrite
        (0, noisy[4]),          # line 0 again: probed in the loop
        (5, VOCABULARY[0]),     # write-through
        (6, noisy[3]),          # line 2's content: dedup hit
    ]
    batched = build_hybrid(2, seed=4)
    serial = build_hybrid(2, seed=4)
    for hybrid in (batched, serial):
        hybrid.write(0, noisy[0])
    assert batched.write_batch(batch) == [
        serial.write(line, data) for line, data in batch
    ]
    stats = batched.tier.stats
    assert stats == serial.tier.stats
    assert stats.tier_evictions >= 2
    assert stats.tier_coalesced_writes == 1
    assert stats.tier_dedup_hits == 1
    assert list(batched.tier._resident.items()) == list(
        serial.tier._resident.items()
    )
    np.testing.assert_array_equal(
        batched.inner.memory.stored, serial.inner.memory.stored
    )
