"""Service request streams: determinism, shape, and the driver."""

import numpy as np
import pytest

from repro.core.config import comp_wf
from repro.service import ShardedController, make_stream, run_workload
from repro.service.workloads import SERVICE_WORKLOADS

LINES = 64


def _lines(stream, count):
    return [request.line for request in stream.iter_requests(count)]


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_streams_are_deterministic_in_their_seed(name):
    def requests(seed):
        stream = make_stream(name, LINES, seed=seed)
        return [(r.line, r.data) for r in stream.iter_requests(400)]

    first, second, other = requests(4), requests(4), requests(5)
    assert first == second
    # Seed sensitivity: addresses for the scattered streams, payloads
    # always (monotonic addresses are seed-free by design).
    assert first != other
    assert all(0 <= line < LINES for line, _ in first)


@pytest.mark.parametrize("name", SERVICE_WORKLOADS)
def test_payloads_are_full_lines(name):
    stream = make_stream(name, LINES, seed=0)
    for request in stream.iter_requests(20):
        assert len(request.data) == 64


def test_unknown_stream_name_rejected():
    with pytest.raises(ValueError, match="unknown service workload"):
        make_stream("postgres", LINES)


def test_monotonic_sweeps_sequentially():
    assert _lines(make_stream("monotonic", 8), 19) == (
        list(range(8)) + list(range(8)) + [0, 1, 2]
    )


def test_high_reuse_concentrates_writes():
    stream = make_stream("high-reuse", LINES, seed=2)
    lines = _lines(stream, 4000)
    hot = set(int(line) for line in stream._hot)
    hot_hits = sum(1 for line in lines if line in hot)
    # hot_share=0.9 over 10% of the lines: the hot set must dominate.
    assert hot_hits / len(lines) > 0.8
    assert len(hot) <= LINES // 5


def test_memcached_is_skewed_but_scattered():
    stream = make_stream("memcached", LINES, seed=3)
    lines = _lines(stream, 6000)
    counts = np.bincount(lines, minlength=LINES)
    # Zipf-popular keys: the top line takes far more than a uniform
    # share, yet the traffic still touches most of the space.
    assert counts.max() > 3 * len(lines) / LINES
    assert (counts > 0).sum() > LINES // 2


def test_nginx_mixes_log_appends_with_object_writes():
    stream = make_stream(
        "nginx", LINES, seed=6, log_fraction=0.25, log_share=0.5
    )
    lines = _lines(stream, 4000)
    log = set(int(line) for line in stream._log)
    log_hits = [line for line in lines if line in log]
    assert 0.35 < len(log_hits) / len(lines) < 0.65
    # Log appends cycle the region sequentially: consecutive log hits
    # follow the region's fixed rotation order.
    order = {int(line): rank for rank, line in enumerate(stream._log)}
    ranks = [order[line] for line in log_hits]
    for previous, current in zip(ranks, ranks[1:]):
        assert current == (previous + 1) % len(log)


def test_run_workload_validates_arguments():
    fleet = ShardedController(comp_wf(n_banks=4), 16, shards=2)
    with pytest.raises(ValueError, match="negative"):
        run_workload(fleet, "monotonic", -1)
    with pytest.raises(ValueError, match="batch"):
        run_workload(fleet, "monotonic", 10, batch=0)
    mismatched = make_stream("monotonic", 32)
    with pytest.raises(ValueError, match="32 lines"):
        run_workload(fleet, mismatched, 10)


def test_run_workload_delivers_exactly_the_requested_count():
    fleet = ShardedController(comp_wf(n_banks=4), 24, shards=3)
    run_workload(fleet, "memcached", 157, batch=50, seed=1)
    assert fleet.stats.demand_writes == 157
