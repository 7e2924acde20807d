"""Placement-perturbation properties of the batch scheduler (PR 10).

The scheduler treats a wear-leveler's placement perturbation
(Start-Gap's one-destination gap move, the WoLFRaM PAD's
two-destination swap) as ordinary dependency-tracked relocations.  The
contract under test, on *both* backends:

* every perturbation relocation either **cuts a barrier**
  (``barrier_gap_move``) or is **proven conflict-free** -- it joins a
  wave, where the exact wave/barrier/lost accounting below must close,
  and the run stays bit-identical to the serial replay;
* the wave counters remain a **mergeable monoid** (order-independent
  ``ControllerStats.merge``) and **checkpoint-stable** (a pickled
  controller resumes to the identical stream and counters).
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.context import ControllerStats
from repro.engine.registry import resolve_config

from .helpers import (
    assert_same_state,
    make_controller,
    make_requests,
    state_fingerprint,
)

BACKENDS = ("startgap_freep", "wolfram")


def _configured(backend, **overrides):
    return resolve_config("comp_wf", wl_backend=backend, **overrides)


def _batched_run(config, requests, chunk, endurance_mean=70.0):
    controller = make_controller(config, endurance_mean=endurance_mean)
    results = []
    for start in range(0, len(requests), chunk):
        results.extend(controller.write_batch(requests[start:start + chunk]))
    return controller, results


@pytest.mark.parametrize("backend", BACKENDS)
def test_healthy_perturbations_schedule_without_barriers(backend):
    """No wear pressure: every relocation is conflict-free and scheduled.

    With endurance far above the stream's write pressure nothing dies
    and no row approaches its wear bound, so the accounting must close
    exactly: every demand write and every relocation lands in a wave,
    zero barriers, zero losses -- and a PAD swap contributes *two*
    scheduled relocations where a gap move contributes one.
    """
    config = _configured(backend, start_gap_psi=5)
    requests = make_requests(600, seed=13)
    controller, _ = _batched_run(config, requests, chunk=48,
                                 endurance_mean=10_000.0)
    stats = controller.stats
    assert stats.gap_move_writes > 0, "stream never perturbed placement"
    assert stats.barrier_gap_move == 0
    assert stats.barrier_collision == 0
    assert stats.barrier_ineligible_row == 0
    assert stats.lost_writes == 0
    assert stats.batch_wave_ops == stats.demand_writes + stats.gap_move_writes
    # Relocations whose displaced slot holds a never-written line are
    # skipped before counting, so the perturbation count bounds the
    # relocation count from above (x2 for two-destination PAD swaps).
    start_gap = controller.engine.start_gap
    if backend == "wolfram":
        assert start_gap.swaps == start_gap.write_count // 5
        assert stats.gap_move_writes <= 2 * start_gap.swaps
        assert stats.pad_table_writes == 2 * start_gap.swaps
    else:
        assert start_gap.gap_moves == start_gap.write_count // 5
        assert stats.gap_move_writes <= start_gap.gap_moves
        assert stats.pad_table_writes == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_worn_perturbations_barrier_or_schedule_and_stay_serial(backend):
    """Heavy wear: the barrier/schedule split still closes, bit-identically.

    Under brutal endurance some relocations hit dead or near-worn
    destinations.  Each must either cut a ``barrier_gap_move`` (and run
    serially) or join a wave; either way the batched run's observable
    state equals the serial replay's, which is the operational proof
    that every *scheduled* perturbation was conflict-free.
    """
    config = _configured(backend, start_gap_psi=3)
    requests = make_requests(1200, seed=4)
    serial = make_controller(config, endurance_mean=18.0)
    want = [serial.write(line, data) for line, data in requests]
    batched, got = _batched_run(config, requests, chunk=32,
                                endurance_mean=18.0)
    assert got == want
    stats = batched.stats
    assert stats.gap_move_writes > 0
    assert stats.deaths > 0, "stream never wore a line out"
    assert stats.barrier_gap_move > 0, "no perturbation ever cut a barrier"
    # Scheduled ops = everything issued minus serial-path barriers and
    # scan-time losses.  ``lost_writes`` also counts losses *inside*
    # serial barrier writes, so it bounds the scan-time share from
    # above; the accounting closes as a two-sided sandwich.
    barriers = (stats.barrier_gap_move + stats.barrier_collision
                + stats.barrier_ineligible_row)
    issued = stats.demand_writes + stats.gap_move_writes
    assert issued - barriers - stats.lost_writes <= stats.batch_wave_ops
    assert stats.batch_wave_ops <= issued - barriers
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial),
        f"{backend}-worn",
    )


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(BACKENDS),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=3, max_value=40),
)
def test_random_streams_close_the_perturbation_accounting(
    backend, psi, seed, chunk
):
    config = _configured(backend, start_gap_psi=psi)
    requests = make_requests(500, seed=seed)
    serial = make_controller(config, endurance_mean=30.0)
    want = [serial.write(line, data) for line, data in requests]
    batched, got = _batched_run(config, requests, chunk=chunk,
                                endurance_mean=30.0)
    assert got == want
    stats = batched.stats
    barriers = (stats.barrier_gap_move + stats.barrier_collision
                + stats.barrier_ineligible_row)
    issued = stats.demand_writes + stats.gap_move_writes
    assert issued - barriers - stats.lost_writes <= stats.batch_wave_ops
    assert stats.batch_wave_ops <= issued - barriers
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial),
        f"{backend}-random",
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_wave_counters_merge_as_an_order_independent_monoid(backend):
    """Shard telemetry folds associatively whatever the reduction order."""
    config = _configured(backend, start_gap_psi=3)
    parts = []
    for seed in (1, 2, 3):
        controller, _ = _batched_run(
            config, make_requests(300, seed=seed), chunk=16,
            endurance_mean=25.0,
        )
        parts.append(controller.stats)
    assert any(p.batch_waves for p in parts)
    forward = ControllerStats.merge_all(parts)
    backward = ControllerStats.merge_all(reversed(parts))
    assert forward == backward
    assert forward.batch_waves == sum(p.batch_waves for p in parts)
    assert forward.batch_wave_ops == sum(p.batch_wave_ops for p in parts)
    assert forward.batch_wave_width_max == max(
        p.batch_wave_width_max for p in parts
    )
    assert forward.pad_table_writes == sum(p.pad_table_writes for p in parts)
    # Identity element: merging with a fresh stats record is a no-op.
    assert forward.merge(ControllerStats()) == forward


@pytest.mark.parametrize("backend", BACKENDS)
def test_wave_counters_are_checkpoint_stable(backend):
    """Pickle mid-stream, resume, and match the uninterrupted run exactly."""
    config = _configured(backend, start_gap_psi=3)
    requests = make_requests(800, seed=6)
    straight, want = _batched_run(config, requests, chunk=24,
                                  endurance_mean=25.0)

    boundary = 384  # a chunk boundary mid-stream
    fresh = make_controller(config, endurance_mean=25.0)
    head = []
    for start in range(0, boundary, 24):
        head.extend(fresh.write_batch(requests[start:start + 24]))
    clone = pickle.loads(pickle.dumps(fresh))
    tail = []
    for start in range(boundary, len(requests), 24):
        tail.extend(clone.write_batch(requests[start:start + 24]))
    assert head + tail == want
    assert clone.stats == straight.stats
    assert_same_state(
        state_fingerprint(clone), state_fingerprint(straight),
        f"{backend}-checkpoint",
    )