"""The shardable address space: ranges, shard maps, translation, seeds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.address_space import AddressRange, ShardMap, shard_seeds
from repro.traces import SyntheticWorkload, get_profile
from repro.traces.trace import Trace


class TestAddressRange:
    def test_basic_geometry(self):
        r = AddressRange(32, 64)
        assert len(r) == 32
        assert 32 in r and 63 in r
        assert 31 not in r and 64 not in r

    def test_rejects_degenerate_ranges(self):
        with pytest.raises(ValueError):
            AddressRange(-1, 4)
        with pytest.raises(ValueError):
            AddressRange(5, 5)
        with pytest.raises(ValueError):
            AddressRange(7, 3)


class TestShardMap:
    def test_partition_is_contiguous_and_balanced(self):
        m = ShardMap(103, 4)
        sizes = [m.lines_of(s) for s in range(4)]
        assert sizes == [26, 26, 26, 25]
        assert m.ranges[0].start == 0
        assert m.ranges[-1].stop == 103
        for left, right in zip(m.ranges, m.ranges[1:]):
            assert left.stop == right.start

    @given(
        total=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=32),
    )
    def test_routing_matches_ranges_for_every_line(self, total, shards):
        if shards > total:
            with pytest.raises(ValueError):
                ShardMap(total, shards)
            return
        m = ShardMap(total, shards)
        assert sum(m.lines_of(s) for s in range(shards)) == total
        assert max(m.lines_of(s) for s in range(shards)) - min(
            m.lines_of(s) for s in range(shards)
        ) <= 1
        for line in range(total):
            shard = m.shard_of(line)
            assert line in m.ranges[shard]
            owner, local = m.to_local(line)
            assert owner == shard
            assert m.ranges[owner].start + local == line

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ShardMap(0, 1)
        with pytest.raises(ValueError):
            ShardMap(8, 0)
        with pytest.raises(ValueError):
            ShardMap(3, 4)
        with pytest.raises(IndexError):
            ShardMap(8, 2).shard_of(8)
        with pytest.raises(IndexError):
            ShardMap(8, 2).shard_of(-1)

    def test_single_shard_keeps_the_base_seed(self):
        # The golden-digest identity: a 1-shard map must not perturb
        # seeding in any way.
        assert shard_seeds(1234, 1) == [1234]
        assert ShardMap(16, 1).shard_seeds(1234) == [1234]

    def test_multi_shard_seeds_are_deterministic_and_distinct(self):
        seeds = shard_seeds(7, 4)
        assert seeds == shard_seeds(7, 4)
        assert len(set(seeds)) == 4
        assert shard_seeds(8, 4) != seeds

    def test_partition_preserves_stream_order(self):
        m = ShardMap(12, 3)
        stream = [(line, bytes([line])) for line in (0, 5, 11, 4, 1, 8, 7)]
        buckets = m.partition(stream)
        assert buckets[0] == [(0, b"\x00"), (1, b"\x01")]
        assert buckets[1] == [(1, b"\x05"), (0, b"\x04"), (3, b"\x07")]
        assert buckets[2] == [(3, b"\x0b"), (0, b"\x08")]

    def test_partition_trace_round_trips_every_write(self):
        workload = SyntheticWorkload(get_profile("milc"), n_lines=20, seed=3)
        trace = Trace(workload="milc", n_lines=20)
        for write in workload.iter_writes(200):
            trace.append(write)
        m = ShardMap(20, 3)
        parts = m.partition_trace(trace)
        assert [p.n_lines for p in parts] == [7, 7, 6]
        assert all(p.workload == "milc" for p in parts)
        assert sum(len(p) for p in parts) == len(trace)
        # Reassemble: map each sub-trace write back to the global space
        # and check the multiset of (line, payload) pairs survives.
        rebuilt = sorted(
            (m.ranges[shard].start + w.line, w.data)
            for shard, part in enumerate(parts)
            for w in part
        )
        assert rebuilt == sorted((w.line, w.data) for w in trace)
