"""The out-of-order batch scheduler: waves, barriers, and adversaries.

PR 5's batched engine flushed the whole pending batch on every same-row
collision and every Start-Gap move; the scheduler replaces those global
flushes with per-row dependency edges.  These tests pin

* the headline regression -- a collision among otherwise-independent
  writes now costs dependency *edges* (extra waves), not flushes;
* the wave/barrier telemetry semantics;
* element-wise serial identity under hypothesis-generated adversarial
  streams (collision-heavy, gap-move-dense, duplicate-line bursts).

Whole-state equivalence across every system under heavy wear lives in
``test_write_batch.py``; lockstep-oracle campaigns in
``tests/validate/test_lockstep.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.registry import resolve_config

from .helpers import (
    LINE,
    N_LINES,
    assert_same_state,
    make_controller,
    make_requests,
    state_fingerprint,
)


def test_collision_costs_edges_not_flushes():
    """Three writes to one line among 31 independents: 3 waves, 0 barriers.

    The PR 5 engine served this batch with three full flushes (every
    repeat of the hot line drained all pending work).  The scheduler
    must keep every op scheduled -- the collisions only chain the hot
    line into later waves.
    """
    config = resolve_config("comp_wf")
    hot = 7
    independents = [line for line in range(32) if line != hot]
    payload = lambda value: bytes([value]) * LINE  # noqa: E731
    requests = []
    for index, line in enumerate(independents[:15]):
        requests.append((line, payload(index)))
    requests.append((hot, payload(100)))
    for index, line in enumerate(independents[15:25]):
        requests.append((line, payload(32 + index)))
    requests.append((hot, payload(101)))
    for index, line in enumerate(independents[25:]):
        requests.append((line, payload(64 + index)))
    requests.append((hot, payload(102)))
    assert len(requests) == 34  # 31 independent + 3 to the hot line

    serial = make_controller(config)
    want = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config)
    assert batched.write_batch(requests) == want

    stats = batched.stats
    assert stats.batch_waves == 3
    assert stats.batch_wave_ops == 34
    assert stats.batch_wave_width_max == 32  # 31 independents + first hot
    assert stats.batch_wave_width_mean == pytest.approx(34 / 3)
    assert stats.batch_collision_edges == 2
    assert stats.barrier_collision == 0
    assert stats.barrier_ineligible_row == 0
    assert stats.barrier_gap_move == 0
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "hot-line"
    )


def test_gap_moves_do_not_barrier_healthy_segments():
    """Start-Gap relocations ride along as dependency-tracked ops."""
    config = resolve_config("comp_wf", start_gap_psi=7)
    requests = make_requests(400, seed=5)
    serial = make_controller(config)
    want = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config)
    got = []
    for start in range(0, len(requests), 32):
        got.extend(batched.write_batch(requests[start:start + 32]))
    assert got == want
    stats = batched.stats
    assert stats.gap_move_writes > 0, "stream too short to move the gap"
    # Relocations ride along as scheduled ops; only a destination near
    # its wear bound may still barrier (rare even in this small array).
    assert stats.barrier_gap_move * 10 <= stats.gap_move_writes
    assert stats.batch_waves > 0
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "gap-moves"
    )


def test_worn_rows_cut_barriers_and_stay_serial_identical():
    """Near-endurance rows must fall back to the serial pipeline."""
    config = resolve_config("comp_wf")
    requests = make_requests(1500, seed=8)
    serial = make_controller(config, endurance_mean=18.0)
    want = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config, endurance_mean=18.0)
    got = []
    for start in range(0, len(requests), 32):
        got.extend(batched.write_batch(requests[start:start + 32]))
    assert got == want
    stats = batched.stats
    assert stats.deaths > 0, "stream too gentle to exercise wear-out"
    assert stats.barrier_ineligible_row > 0
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "worn"
    )


# -- hypothesis: adversarial streams vs the serial loop ------------------


def _payload_pool(seed, size=8):
    rng = np.random.default_rng(seed)
    pool = [rng.integers(0, 3, LINE, dtype=np.uint8).tobytes()]
    for index in range(1, size):
        bound = 256 if index % 2 else 2
        pool.append(rng.integers(0, bound, LINE, dtype=np.uint8).tobytes())
    return pool


def _assert_batched_equals_serial(config, stream, chunk, endurance=70.0):
    serial = make_controller(config, endurance_mean=endurance)
    want = [serial.write(line, data) for line, data in stream]
    batched = make_controller(config, endurance_mean=endurance)
    got = []
    for start in range(0, len(stream), chunk):
        got.extend(batched.write_batch(stream[start:start + chunk]))
    assert got == want
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "hypothesis"
    )


_ADVERSARIAL = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_ADVERSARIAL
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7)),
        min_size=4, max_size=120,
    ),
    chunk=st.integers(2, 40),
)
def test_collision_heavy_streams_match_serial(ops, chunk):
    """Four logical lines only: nearly every batch chains collisions."""
    pool = _payload_pool(1)
    stream = [(line, pool[payload]) for line, payload in ops]
    _assert_batched_equals_serial(resolve_config("comp_wf"), stream, chunk)


@_ADVERSARIAL
@given(
    ops=st.lists(
        st.tuples(st.integers(0, N_LINES - 1), st.integers(0, 7)),
        min_size=4, max_size=120,
    ),
    psi=st.integers(3, 9),
    chunk=st.integers(2, 40),
)
def test_gap_move_dense_streams_match_serial(ops, psi, chunk):
    """Tiny psi: Start-Gap fires every few writes, often mid-segment."""
    pool = _payload_pool(2)
    stream = [(line, pool[payload]) for line, payload in ops]
    config = resolve_config("comp_wf", start_gap_psi=psi)
    _assert_batched_equals_serial(config, stream, chunk)


@_ADVERSARIAL
@given(
    bursts=st.lists(
        st.tuples(
            st.integers(0, N_LINES - 1),  # line
            st.integers(1, 6),            # burst length
            st.integers(0, 7),            # payload
        ),
        min_size=1, max_size=30,
    ),
    chunk=st.integers(2, 40),
)
def test_duplicate_line_bursts_match_serial(bursts, chunk):
    """Runs of back-to-back writes to one line (worst-case chaining)."""
    pool = _payload_pool(3)
    stream = [
        (line, pool[(payload + repeat) % len(pool)])
        for line, length, payload in bursts
        for repeat in range(length)
    ]
    if not stream:
        return
    config = resolve_config("comp_wf_freep")
    _assert_batched_equals_serial(config, stream, chunk, endurance=40.0)
