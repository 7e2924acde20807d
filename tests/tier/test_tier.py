"""The content-aware DRAM front tier: routing, dedup, eviction, stats.

Unit tests pin the :class:`~repro.tier.DramTier` policy surface
(admission by compressibility, LRU eviction over unique contents,
coalescing, refcounted dedup) and the :class:`~repro.tier.HybridController`
facade semantics; property tests assert the load-bearing invariants --
the tier never loses a write and dedup never aliases lines -- over
random traces.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BestOfCompressor
from repro.core.config import comp_wf
from repro.core.controller import CompressedPCMController
from repro.core.window import LINE_BYTES
from repro.pcm import EnduranceModel
from repro.tier import (
    ABSORBED,
    DEFAULT_ADMIT_THRESHOLD,
    DramTier,
    HybridController,
)

# Payload vocabulary: solid-color lines compress to a handful of bytes
# (write-through), high-entropy lines defeat both FPC and BDI
# (DRAM-resident).
INCOMPRESSIBLE = bytes(
    np.random.default_rng(99).integers(0, 256, LINE_BYTES, dtype=np.uint8)
)
COMPRESSIBLE = bytes(LINE_BYTES)
#: A bare tier's probe (a HybridController passes its controller's).
PROBE = BestOfCompressor()


def noise(seed):
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, LINE_BYTES, dtype=np.uint8))


def build_controller(seed=7, n_lines=16, endurance=1e6, tier_lines=0):
    """A real PCM controller that will not die within a short test."""
    return CompressedPCMController(
        config=comp_wf(n_banks=4, tier_lines=tier_lines),
        n_lines=n_lines,
        endurance_model=EnduranceModel(mean=endurance, cov=0.1),
        rng=np.random.default_rng(seed),
    )


def build_hybrid(tier_lines, seed=7, n_lines=16):
    """``build_controller`` behind its config's DRAM tier."""
    return HybridController(
        build_controller(seed=seed, n_lines=n_lines, tier_lines=tier_lines)
    )


payloads = st.one_of(
    st.integers(0, 255).map(lambda b: bytes([b]) * LINE_BYTES),
    st.binary(min_size=LINE_BYTES, max_size=LINE_BYTES),
    st.binary(min_size=8, max_size=8).map(lambda chunk: chunk * 8),
)
trace = st.lists(
    st.tuples(st.integers(0, 15), payloads), min_size=1, max_size=120
)


class TestDramTierPolicy:
    def test_validation(self):
        """A tier holds at least one line; ``tier_lines == 0`` means
        no tier, so no caller builds one."""
        for capacity in (-1, 0):
            with pytest.raises(ValueError, match="capacity"):
                DramTier(capacity, PROBE)

    def test_compressible_lines_write_through(self):
        tier = DramTier(4, PROBE)
        ops = []
        assert tier.write(0, COMPRESSIBLE, ops) is None
        assert ops == [(0, COMPRESSIBLE)]
        assert not tier.resident(0)

    def test_incompressible_lines_become_resident(self):
        tier = DramTier(4, PROBE)
        ops = []
        assert tier.write(0, INCOMPRESSIBLE, ops) is ABSORBED
        assert ops == [] and tier.resident(0)
        assert tier.stats.tier_pcm_writes_avoided == 1

    def test_rewrites_coalesce_in_dram(self):
        tier = DramTier(4, PROBE)
        ops = []
        tier.write(0, INCOMPRESSIBLE, ops)
        for seed in (1, 2, 3):
            assert tier.write(0, noise(seed), ops) is ABSORBED
        assert ops == [] and len(tier) == 1
        assert tier.stats.tier_coalesced_writes == 3
        assert tier.stats.tier_pcm_writes_avoided == 4
        assert tier.lookup(0) == noise(3)

    def test_coalescing_keeps_a_resident_compressible_rewrite(self):
        """A rewrite of a resident line coalesces even if the new
        content is compressible -- residency, not content, wins."""
        tier = DramTier(4, PROBE)
        ops = []
        tier.write(0, INCOMPRESSIBLE, ops)
        assert tier.write(0, COMPRESSIBLE, ops) is ABSORBED
        assert ops == [] and tier.lookup(0) == COMPRESSIBLE

    def test_dedup_charges_capacity_once_per_content(self):
        tier = DramTier(2, PROBE)
        ops = []
        for line in range(4):
            tier.write(line, INCOMPRESSIBLE, ops)
        # Four lines, one unique content: nothing evicted, cap charged 1.
        assert ops == [] and len(tier) == 4
        assert tier.unique_contents == 1
        assert tier.stats.tier_dedup_hits == 3

    def test_dedup_never_aliases_lines_that_diverge(self):
        tier = DramTier(4, PROBE)
        ops = []
        tier.write(0, INCOMPRESSIBLE, ops)
        tier.write(1, INCOMPRESSIBLE, ops)
        tier.write(1, noise(5), ops)  # line 1 diverges
        assert tier.lookup(0) == INCOMPRESSIBLE
        assert tier.lookup(1) == noise(5)
        assert tier.unique_contents == 2

    def test_eviction_is_lru_and_reads_refresh_recency(self):
        tier = DramTier(2, PROBE)
        ops = []
        tier.write(0, noise(1), ops)
        tier.write(1, noise(2), ops)
        assert tier.lookup(0) == noise(1)  # refresh line 0
        tier.write(2, noise(3), ops)  # over capacity: line 1 is LRU
        assert ops == [(1, noise(2))]
        assert tier.resident(0) and tier.resident(2)
        assert tier.stats.tier_evictions == 1

    def test_fresh_admission_is_never_its_own_victim(self):
        tier = DramTier(1, PROBE)
        ops = []
        tier.write(0, noise(1), ops)
        tier.write(1, noise(2), ops)
        assert ops == [(0, noise(1))]  # the older line pays
        assert tier.resident(1)

    def test_drain_flushes_oldest_first_and_empties(self):
        tier = DramTier(4, PROBE)
        ops = []
        for line, seed in ((3, 1), (1, 2), (2, 3)):
            tier.write(line, noise(seed), ops)
        drained = tier.drain()
        assert drained == [(3, noise(1)), (1, noise(2)), (2, noise(3))]
        assert len(tier) == 0 and tier.unique_contents == 0
        assert tier.stats.tier_evictions == 0  # drains are not evictions

    @given(ops=st.lists(st.tuples(st.integers(0, 31), payloads), max_size=150))
    @settings(deadline=None, max_examples=60)
    def test_tier_never_loses_a_write(self, ops):
        """Conservation: after draining, the PCM-visible image (last op
        per line) equals last-write-wins over the full input stream --
        no write is lost to eviction, coalescing, or dedup."""
        tier = DramTier(4, PROBE)
        pcm_image = {}
        shadow = {}
        for line, data in ops:
            out = []
            tier.write(line, data, out)
            for flushed_line, flushed_data in out:
                pcm_image[flushed_line] = flushed_data
            shadow[line] = bytes(data)
            assert tier.unique_contents <= tier.capacity_lines
            # A resident line always reads back its newest content.
            if tier.resident(line):
                assert tier._resident[line] == shadow[line]
        for line, data in tier.drain():
            pcm_image[line] = data
        assert pcm_image == shadow


class TestHybridControllerFacade:
    def test_rejects_short_writes_when_tiered(self):
        hybrid = build_hybrid(4)
        with pytest.raises(ValueError, match="bytes"):
            hybrid.write(0, b"short")
        with pytest.raises(ValueError, match="bytes"):
            hybrid.write_batch([(0, b"short")])

    def test_reads_hit_dram_then_fall_through_to_pcm(self):
        hybrid = build_hybrid(4)
        hybrid.write(0, COMPRESSIBLE)  # write-through: PCM only
        hybrid.write(1, INCOMPRESSIBLE)  # resident: DRAM only
        assert hybrid.read(0) == COMPRESSIBLE
        assert hybrid.read(1) == INCOMPRESSIBLE
        assert not hybrid.tier.resident(0) and hybrid.tier.resident(1)

    def test_flush_lands_residents_in_pcm(self):
        hybrid = build_hybrid(4)
        hybrid.write(0, INCOMPRESSIBLE)
        assert hybrid.inner.read(0) != INCOMPRESSIBLE
        assert hybrid.flush() == 1
        assert hybrid.inner.read(0) == INCOMPRESSIBLE
        assert hybrid.flush() == 0  # nothing left

    def test_batch_results_align_with_requests(self):
        hybrid = build_hybrid(4)
        results = hybrid.write_batch([
            (0, COMPRESSIBLE),      # write-through
            (1, INCOMPRESSIBLE),    # absorbed
            (1, noise(8)),          # coalesced
            (2, COMPRESSIBLE),      # write-through
        ])
        assert len(results) == 4
        assert results[0].physical >= 0 and results[3].physical >= 0
        assert results[1] is ABSORBED and results[2] is ABSORBED

    def test_stats_merge_tier_and_pcm_counters(self):
        hybrid = build_hybrid(4)
        hybrid.write(0, COMPRESSIBLE)
        hybrid.write(1, INCOMPRESSIBLE)
        hybrid.write(1, INCOMPRESSIBLE)
        stats = hybrid.stats
        assert stats.demand_writes == 1  # only the write-through hit PCM
        assert stats.tier_pcm_writes_avoided == 2
        assert stats.tier_coalesced_writes == 1

    def test_pcm_write_accounting_balances(self):
        """Demand stream conservation before any flush:
        pcm_demand + avoided - evictions == requests issued."""
        hybrid = build_hybrid(4, n_lines=32)
        rng = np.random.default_rng(11)
        issued = 200
        for _ in range(issued):
            line = int(rng.integers(0, 32))
            data = (
                COMPRESSIBLE if rng.random() < 0.5
                else bytes(rng.integers(0, 256, LINE_BYTES, dtype=np.uint8))
            )
            hybrid.write(line, data)
        stats = hybrid.stats
        pcm_writes = stats.demand_writes
        assert (
            pcm_writes
            + stats.tier_pcm_writes_avoided
            - stats.tier_evictions
            == issued
        )

    def test_tier_state_survives_pickling(self):
        hybrid = build_hybrid(4)
        hybrid.write(0, INCOMPRESSIBLE)
        hybrid.write(1, INCOMPRESSIBLE)
        clone = pickle.loads(pickle.dumps(hybrid))
        assert clone.tier.resident(0) and clone.tier.resident(1)
        assert clone.stats == hybrid.stats
        assert clone.read(0) == INCOMPRESSIBLE  # (bumps clone's hits)

    @given(ops=st.lists(st.tuples(st.integers(0, 15), payloads),
                        min_size=1, max_size=60))
    @settings(deadline=None, max_examples=15)
    def test_eviction_never_loses_data(self, ops):
        """Every line reads back its last-written content, during the
        run (DRAM or PCM) and again after a full flush (PCM only)."""
        hybrid = build_hybrid(3)
        shadow = {}
        for line, data in ops:
            hybrid.write(line, data)
            shadow[line] = bytes(data)
        for line, expected in shadow.items():
            assert hybrid.read(line) == expected
        hybrid.flush()
        assert len(hybrid.tier) == 0
        for line, expected in shadow.items():
            assert hybrid.inner.read(line) == expected
