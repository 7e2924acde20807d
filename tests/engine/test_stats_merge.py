"""``ControllerStats.merge`` is a commutative monoid; shard sums are exact.

Two layers of evidence for the fleet-view contract:

* algebraic -- ``merge`` over hypothesis-generated counter sets is
  associative and commutative with :meth:`ControllerStats.identity` as
  its identity element, so any reduction order (and any shard count)
  yields the same fleet view;
* end-to-end -- partitioning a real write stream across K shards and
  merging the K per-shard stats reproduces, field for field, the stats
  of the sharded address space run on the full stream (and each shard's
  stats equal an *independent* controller of that size replaying the
  shard's sub-stream, which is the whole point of the refactor).
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import comp_wf
from repro.engine.context import ControllerStats
from repro.service import ShardedController
from repro.traces import SyntheticWorkload, get_profile

_COUNTER_FIELDS = [
    f.name
    for f in dataclasses.fields(ControllerStats)
    if f.name != "heuristic_steps"
]


def stats_strategy():
    counters = {
        name: st.integers(min_value=0, max_value=10**6)
        for name in _COUNTER_FIELDS
    }
    counters["heuristic_steps"] = st.dictionaries(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=10**4),
        max_size=6,
    )
    return st.builds(ControllerStats, **counters)


class TestMergeAlgebra:
    @given(stats_strategy())
    def test_identity_element(self, stats):
        identity = ControllerStats.identity()
        assert stats.merge(identity) == stats
        assert identity.merge(stats) == stats
        assert ControllerStats.merge_all([]) == identity

    @given(stats_strategy(), stats_strategy())
    def test_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(stats_strategy(), stats_strategy(), stats_strategy())
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert ControllerStats.merge_all([a, b, c]) == a.merge(b).merge(c)

    @given(stats_strategy(), stats_strategy())
    def test_merge_does_not_mutate_operands(self, a, b):
        before_a = dataclasses.replace(a, heuristic_steps=dict(a.heuristic_steps))
        before_b = dataclasses.replace(b, heuristic_steps=dict(b.heuristic_steps))
        a.merge(b)
        assert a == before_a
        assert b == before_b


class TestShardSumsAreExact:
    def _stream(self, lines, writes, seed):
        workload = SyntheticWorkload(get_profile("mcf"), n_lines=lines, seed=seed)
        return [(w.line, w.data) for w in workload.iter_writes(writes)]

    def test_merged_shard_stats_equal_full_space_stats(self):
        """K merged shard views == the sharded space run on the full trace."""
        lines, shards, seed = 48, 3, 11
        stream = self._stream(lines, 900, seed)

        fleet = ShardedController(
            comp_wf(n_banks=4), lines, shards=shards,
            endurance_mean=40.0, endurance_cov=0.2, seed=seed,
        )
        for line, data in stream:
            fleet.write(line, data)

        # Independent single-space controllers, one per shard, each
        # replaying only its routed sub-stream in local coordinates.
        independent = [
            ShardedController(
                comp_wf(n_banks=4), fleet.shard_map.lines_of(shard), shards=1,
                endurance_mean=40.0, endurance_cov=0.2,
                seed=shard_seed,
            )
            for shard, shard_seed in enumerate(
                fleet.shard_map.shard_seeds(seed)
            )
        ]
        for bucket, controller in zip(
            fleet.shard_map.partition(stream), independent
        ):
            for local, data in bucket:
                controller.write(local, data)

        shard_views = [c.stats for c in independent]
        assert shard_views == fleet.shard_stats()
        assert ControllerStats.merge_all(shard_views) == fleet.stats
        # Reduction order cannot matter for an exact sum.
        assert ControllerStats.merge_all(reversed(shard_views)) == fleet.stats

    def test_fleet_invariants_survive_aggregation(self):
        lines, seed = 40, 3
        fleet = ShardedController(
            comp_wf(n_banks=4), lines, shards=4,
            endurance_mean=32.0, endurance_cov=0.2, seed=seed,
        )
        fleet.write_batch(self._stream(lines, 600, seed))
        merged = fleet.stats
        assert merged.demand_writes == 600
        assert merged.stored_writes == (
            merged.compressed_writes + merged.uncompressed_writes
        )
        assert (
            merged.demand_writes + merged.gap_move_writes
            == merged.stored_writes + merged.lost_writes
        )
        assert merged.heuristic_steps == {
            step: sum(s.heuristic_steps.get(step, 0) for s in fleet.shard_stats())
            for step in {
                step for s in fleet.shard_stats() for step in s.heuristic_steps
            }
        }
