"""Uneven-shard partitioning audit: routing, remaps, fleet merge.

PR 10's issue flagged ``ShardMap`` partitioning with
``lines % shards != 0`` in combination with remapped/spare lines as a
suspected fault-line.  The audit found routing purely logical (spares
are shard-local *physical* slots the map never sees), so these are
pinning/regression tests: uneven splits stay exhaustively consistent,
and a worn fleet with live spare remaps on both wear-leveling backends
still satisfies :func:`repro.validate.fuzz.assert_fleet_view`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import comp_wf
from repro.engine.address_space import ShardMap
from repro.service import ShardedController, make_stream
from repro.validate.fuzz import assert_fleet_view


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=17),
)
def test_uneven_partition_is_exhaustively_consistent(total_lines, shards):
    if shards > total_lines:
        with pytest.raises(ValueError):
            ShardMap(total_lines, shards)
        return
    shard_map = ShardMap(total_lines, shards)
    sizes = [shard_map.lines_of(s) for s in range(shards)]
    assert sum(sizes) == total_lines
    assert max(sizes) - min(sizes) <= 1
    # The first ``total_lines % shards`` shards carry the extra line.
    assert sizes == sorted(sizes, reverse=True)
    for line in range(total_lines):
        shard, local = shard_map.to_local(line)
        # O(1) arithmetic routing agrees with the range table.
        assert line in shard_map.ranges[shard]
        assert shard_map.ranges[shard].start + local == line


@pytest.mark.parametrize("wl_backend", ["startgap_freep", "wolfram"])
def test_uneven_worn_fleet_with_remaps_merges_cleanly(wl_backend):
    # 25 lines / 3 shards -> sizes (9, 8, 8); brutal endurance plus a
    # spare pool drives deaths *and* remap-to-spare traffic per shard.
    lines, shards, seed = 25, 3, 5
    config = comp_wf(
        name="comp_wf_uneven",
        spare_line_fraction=0.2,
        start_gap_psi=3,
        wl_backend=wl_backend,
        n_banks=4,
    )
    fleet = ShardedController(
        config, lines, shards=shards,
        endurance_mean=20.0, endurance_cov=0.25, seed=seed,
    )
    stream = make_stream("memcached", lines, seed)
    for request in stream.iter_requests(3000):
        fleet.write(request.line, request.data)

    shard_stats = fleet.shard_stats()
    merged = assert_fleet_view(shard_stats)
    assert merged.deaths > 0, "stream never wore a line out"
    assert merged.remaps > 0, "stream never exercised the spare pool"
    if wl_backend == "wolfram":
        assert merged.pad_table_writes > 0
    else:
        assert merged.pad_table_writes == 0
    # Every global line still reads back from its owning shard.
    for line in range(lines):
        fleet.read(line)
