"""The tier's probe results, handed to the controller's cache, change nothing.

``HybridController`` probes admission with the inner controller's own
uncached best-of compressor and lends the results of the contents a
batch sends to PCM to the controller's ``CachingCompressor`` for the
one inner ``write_batch`` call.  A cache miss then takes the handed
result instead of recompressing, but is still counted and inserted
exactly like any other miss.  These tests run random streams through
a tiered controller with the hand-off and through the same controller
with the hand-off patched out, and require identical results, stats
(cache counters included), cache LRU order, PCM cells and read-back --
on the serial inner path (coset-encoded systems) and on the scheduler
path (unencoded systems at batch > 1).  They also pin that nothing
handed outlives its call and that checkpoints carry no derived results.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BestOfCompressor, CachingCompressor
from repro.core.controller import CompressedPCMController
from repro.core.window import LINE_BYTES
from repro.engine.registry import resolve_config
from repro.pcm import EnduranceModel
from repro.tier import DramTier, HybridController

N_LINES = 16

#: Solid and periodic lines write through; random ones are admitted.
_RNG = np.random.default_rng(11)
VOCABULARY = (
    [bytes([b]) * LINE_BYTES for b in (0, 3, 255)]
    + [bytes(_RNG.integers(0, 256, 8, dtype=np.uint8)) * 8 for _ in range(3)]
    + [bytes(_RNG.integers(0, 256, LINE_BYTES, dtype=np.uint8))
       for _ in range(8)]
)
NOISY = VOCABULARY[-8:]

requests = st.lists(
    st.tuples(
        st.integers(0, N_LINES - 1),
        st.integers(0, len(VOCABULARY) - 1).map(VOCABULARY.__getitem__),
    ),
    min_size=1,
    max_size=24,
)
#: A stream step: a write batch, or a full flush of the tier.
steps = st.lists(
    st.one_of(requests, st.just("flush")), min_size=1, max_size=8
)


def build_hybrid(encoding: str, tier_lines: int) -> HybridController:
    """A tiered controller with a small cache, so the LRU evicts."""
    config = resolve_config(
        "comp_wf", encoding=encoding, compression_cache_lines=6,
        tier_lines=tier_lines, n_banks=4,
    )
    controller = CompressedPCMController(
        config=config,
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=1e6, cov=0.1),
        rng=np.random.default_rng(5),
    )
    return HybridController(controller)


def without_handoff():
    """Patch the hand-off out: the cache never sees a tier result."""
    return mock.patch.object(
        CachingCompressor, "hand_off", lambda self, results: None
    )


def snapshot(hybrid: HybridController) -> dict:
    inner = hybrid.inner
    return {
        "stats": hybrid.stats,
        "cache_order": list(inner.compressor._entries),
        "residents": list(hybrid.tier._resident.items()),
        "stored": inner.memory.stored.tobytes(),
        "counts": inner.memory.counts.tobytes(),
        "read_back": [hybrid.read(line) for line in range(N_LINES)],
    }


def run_step(hybrid: HybridController, step):
    if step == "flush":
        return hybrid.flush()
    return hybrid.write_batch(step)


@pytest.mark.parametrize(
    "encoding", ["coset", "none"], ids=["serial-inner", "scheduler"]
)
@given(stream=steps, tier_lines=st.integers(1, 4))
@settings(deadline=None, max_examples=30)
def test_handoff_changes_no_result(encoding, stream, tier_lines):
    handed = build_hybrid(encoding, tier_lines)
    plain = build_hybrid(encoding, tier_lines)
    cache = handed.inner.compressor
    for step in stream:
        got = run_step(handed, step)
        assert cache._handed == {}
        with without_handoff():
            want = run_step(plain, step)
        assert got == want
        assert snapshot(handed) == snapshot(plain)


@pytest.mark.parametrize("encoding", ["coset", "none"])
def test_handed_results_replace_recompression(encoding):
    """Each tier-probed content reaching PCM is compressed only once;
    the misses are still counted."""
    hybrid = build_hybrid(encoding, 2)
    probe = hybrid.tier.compressor
    assert probe is hybrid.inner.compressor.inner
    batch = [(line, data) for line, data in enumerate(
        VOCABULARY[:4] + NOISY[:4]
    )]
    with mock.patch.object(
        BestOfCompressor, "compress", autospec=True,
        side_effect=BestOfCompressor.compress,
    ) as compress, mock.patch.object(
        BestOfCompressor, "compress_batch", autospec=True,
        side_effect=BestOfCompressor.compress_batch,
    ) as compress_batch:
        hybrid.write_batch(batch)
    # One batched probe call; the cache recompresses nothing.
    assert compress.call_count == 0
    assert compress_batch.call_count == 1
    # 4 write-throughs + 2 evictions reached PCM, all distinct misses.
    assert hybrid.stats.compression_cache_misses == 6
    assert hybrid.stats.compression_cache_hits == 0
    # Coset systems take the serial loop, unencoded ones the scheduler.
    assert (hybrid.stats.batch_waves > 0) == (encoding == "none")


def test_nothing_handed_outlives_a_failing_inner_call():
    hybrid = build_hybrid("coset", 1)
    cache = hybrid.inner.compressor
    lent = []

    def failing_write_batch(ops):
        lent.append(dict(cache._handed))
        raise RuntimeError("inner write failed")

    hybrid.inner.write_batch = failing_write_batch
    with pytest.raises(RuntimeError, match="inner write failed"):
        hybrid.write_batch([(0, VOCABULARY[0]), (1, NOISY[0])])
    assert lent and lent[0]
    assert cache._handed == {}


def _drive(hybrid, seed, batches=6):
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        picks = rng.integers(0, len(VOCABULARY), 10)
        lines = rng.integers(0, N_LINES, 10)
        hybrid.write_batch([
            (int(line), VOCABULARY[int(pick)])
            for line, pick in zip(lines, picks)
        ])


class TestCheckpoints:
    def test_pickled_mid_run_continues_bit_identically(self):
        reference = build_hybrid("coset", 3)
        resumed = build_hybrid("coset", 3)
        for hybrid in (reference, resumed):
            _drive(hybrid, seed=1)
        assert len(resumed.tier) and resumed.tier._held
        blob = pickle.dumps(resumed)
        assert b"_held" not in blob and b"_handed" not in blob
        resumed = pickle.loads(blob)
        assert resumed.tier._held == {}
        assert resumed.inner.compressor._handed == {}
        assert resumed.tier.compressor is resumed.inner.compressor.inner
        _drive(reference, seed=2)
        _drive(resumed, seed=2)
        reference.flush()
        resumed.flush()
        assert snapshot(resumed) == snapshot(reference)

    def test_tier_pickled_without_held_results_resumes(self):
        """A tier pickled before results were held (private probe, no
        ``_held`` field) resumes on the controller's compressor."""

        def legacy_state(tier):
            state = tier.__dict__.copy()
            del state["_held"]
            state["_probe"] = BestOfCompressor()
            del state["compressor"]
            return state

        reference = build_hybrid("coset", 3)
        resumed = build_hybrid("coset", 3)
        for hybrid in (reference, resumed):
            _drive(hybrid, seed=3)
        with mock.patch.object(DramTier, "__getstate__", legacy_state):
            blob = pickle.dumps(resumed)
        resumed = pickle.loads(blob)
        assert "_probe" not in vars(resumed.tier)
        assert resumed.tier.compressor is resumed.inner.compressor.inner
        _drive(reference, seed=4)
        _drive(resumed, seed=4)
        assert snapshot(resumed) == snapshot(reference)


def test_lockstep_tier_probes_with_the_fast_controllers_compressor():
    """Fuzz's tier topology runs the production hand-off path."""
    from repro.validate import ValidatingController

    validating = ValidatingController(
        resolve_config("comp_wf", tier_lines=2), N_LINES, endurance_mean=1e6,
        seed=2,
    )
    hybrid = HybridController(validating)
    assert hybrid.tier.compressor is validating.fast.compressor.inner
    hybrid.write_batch([(0, NOISY[0]), (1, NOISY[1]), (2, NOISY[2]),
                        (3, VOCABULARY[0])])
    hybrid.verify_state()
    assert validating.fast.compressor._handed == {}
