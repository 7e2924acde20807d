"""Batched write engine vs the serial pipeline: bit-identity.

``CompressedPCMController.write_batch`` promises results and final
state *bit-identical* to issuing the same writes serially, for every
system composition on both wear-leveling backends -- including runs
harsh enough to exercise wear-out mid-write, the fallback-to-compressed
rescue, FREE-p retirement, and block death.  These tests pin that
promise, plus the order-invariance property wave execution relies on:
applying a set of writes to distinct lines in any permutation or
partition leaves byte-identical bank state.
"""

import pickle

import numpy as np
import pytest

from repro.core.controller import CompressedPCMController
from repro.engine.registry import resolve_config, system_names
from repro.pcm import EnduranceModel
from repro.validate.invariants import default_invariants

from .helpers import (
    LINE,
    N_LINES,
    assert_same_state,
    make_controller,
    make_requests,
    state_fingerprint,
)

#: Every registered system on the paper's Start-Gap + FREE-p substrate
#: and on the WoLFRaM PAD backend.  Multi-region Start-Gap has no PAD
#: form (the config layer rejects the combination).
SYSTEM_BACKENDS = [
    (system, backend)
    for system in system_names()
    for backend in ("startgap_freep", "wolfram")
    if backend == "startgap_freep"
    or resolve_config(system).start_gap_regions == 1
]


@pytest.mark.parametrize("system, wl_backend", SYSTEM_BACKENDS)
def test_write_batch_matches_serial(system, wl_backend):
    """Every registered system and backend, across batch sizes, under
    heavy wear."""
    config = resolve_config(system, wl_backend=wl_backend)
    requests = make_requests(1500)
    serial = make_controller(config)
    serial_results = [serial.write(line, data) for line, data in requests]
    want = state_fingerprint(serial)
    assert serial.stats.deaths or serial.stats.total_flips  # stream did work

    for batch_size in (2, 7, 32):
        batched = make_controller(config)
        got_results = []
        for index in range(0, len(requests), batch_size):
            got_results.extend(
                batched.write_batch(requests[index:index + batch_size])
            )
        label = f"{system}/{wl_backend} batch={batch_size}"
        assert got_results == serial_results, label
        assert_same_state(state_fingerprint(batched), want, label)


def test_write_batch_exercises_hard_paths():
    """The equivalence stream must actually hit deaths/rescues/remaps."""
    config = resolve_config("comp_wf_freep")
    controller = make_controller(config, endurance_mean=55.0)
    for index in range(0, 3000, 16):
        controller.write_batch(make_requests(3000)[index:index + 16])
    stats = controller.stats
    assert stats.deaths > 0
    assert stats.remaps > 0
    assert stats.lost_writes > 0


def test_write_batch_serializes_same_line_collisions():
    """Repeated writes to one logical line flush and stay serial-equal."""
    config = resolve_config("comp_wf")
    requests = [(5, bytes([value]) * LINE) for value in range(40)]
    serial = make_controller(config)
    serial_results = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config)
    assert batched.write_batch(requests) == serial_results
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "collisions"
    )


def test_write_batch_validates_payload_size_up_front():
    controller = make_controller(resolve_config("comp"))
    before = state_fingerprint(controller)
    with pytest.raises(ValueError, match="64 bytes"):
        controller.write_batch([(0, bytes(LINE)), (1, bytes(3))])
    # Up-front validation: no side effects from the valid prefix.
    assert_same_state(state_fingerprint(controller), before, "validation")


def test_write_batch_with_invariants_falls_back_to_serial():
    """Checkers assert per-write accounting, so batching must stage
    through the fully serial path -- and still match its results."""
    config = resolve_config("comp_wf")
    checked = CompressedPCMController(
        config=config.with_overrides(n_banks=4),
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=70.0, cov=0.25),
        rng=np.random.default_rng(11),
        invariants=default_invariants(),
    )
    plain = make_controller(config)
    requests = make_requests(300)
    got = []
    for index in range(0, len(requests), 8):
        got.extend(checked.write_batch(requests[index:index + 8]))
    want = [plain.write(line, data) for line, data in requests]
    assert got == want


# -- order-invariance property (wave execution's foundation) -------------


def _conflict_free_controller():
    """A controller whose next writes cannot rotate, evict or remap.

    Order invariance only holds when no order-dependent shared machinery
    fires *inside* the set: a huge intra-WL counter limit keeps the
    rotation offsets fixed, a large content cache never evicts, and a
    Start-Gap period longer than the whole run keeps the logical to
    physical map fixed.
    """
    config = resolve_config(
        "comp_wf", intra_counter_limit=1_000_000,
        compression_cache_lines=4096,
        start_gap_psi=1_000_000,
    )
    return make_controller(config, endurance_mean=90.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conflict_free_sets_are_order_and_partition_invariant(seed):
    """Any permutation/partition of writes to distinct lines is equivalent.

    Warm the controller with a serial prefix, snapshot it, then apply
    one set of writes to distinct logical lines every way through
    ``write_batch``: one write at a time, as one batch, permuted, and
    split into uneven partitions.  The final bank state and
    ControllerStats must be byte-identical.
    """
    rng = np.random.default_rng(seed)
    base = _conflict_free_controller()
    for line, data in make_requests(400, seed=seed + 10):
        base.write(line, data)
    frozen = pickle.dumps(base)

    remap = base.pipeline.remap
    logicals = [int(line) for line in rng.choice(N_LINES, 24, replace=False)]
    physicals = {remap.map_logical(line) for line in logicals}
    assert len(physicals) == len(logicals)  # genuinely distinct rows
    pool = make_requests(60, seed=seed + 20)
    requests = [(line, pool[i][1]) for i, line in enumerate(logicals)]

    def apply(plan):
        controller = pickle.loads(frozen)
        for chunk in plan:
            controller.write_batch(chunk)
        # No gap move fell inside the set.
        assert controller.stats.gap_move_writes == base.stats.gap_move_writes
        return state_fingerprint(controller)

    want = apply([[request] for request in requests])  # serial order
    permuted = list(requests)
    rng.shuffle(permuted)
    plans = {
        "one-batch": [requests],
        "permuted-one-batch": [permuted],
        "pairs": [requests[i:i + 2] for i in range(0, len(requests), 2)],
        "uneven": [requests[:5], requests[5:6], requests[6:]],
        "permuted-uneven": [permuted[:7], permuted[7:]],
    }
    for label, plan in plans.items():
        assert_same_state(apply(plan), want, label)


# -- segment paths the stage methods must reproduce -----------------------


def _serial_and_batched(config, requests, batches, prepare=None, **kwargs):
    """Run ``requests`` serially and through ``write_batch`` chunks.

    ``batches`` lists the chunk sizes (the last chunk takes the rest);
    ``prepare`` may adjust each fresh controller before the stream.
    Returns both controllers after asserting identical results/state.
    """
    serial = make_controller(config, **kwargs)
    batched = make_controller(config, **kwargs)
    if prepare is not None:
        prepare(serial)
        prepare(batched)
    want = [serial.write(line, data) for line, data in requests]
    got = []
    taken = 0
    for size in [*batches, len(requests)]:
        got.extend(batched.write_batch(requests[taken:taken + size]))
        taken += size
        if taken >= len(requests):
            break
    assert got == want
    assert_same_state(state_fingerprint(batched), state_fingerprint(serial))
    return serial, batched


def test_intra_line_rotation_mid_segment_matches_serial():
    """A 3-write rotation counter rotates several times inside every
    32-write segment, so writes of one segment see different offsets."""
    config = resolve_config(
        "comp_wf", intra_counter_limit=3, start_gap_psi=1_000_000
    )
    requests = make_requests(320, seed=5)
    _, batched = _serial_and_batched(
        config, requests, [32] * 10, endurance_mean=1e6
    )
    assert batched.engine.intra_wl.rotations >= 320 // 3 - 4
    assert batched.stats.barrier_collision == 0


def _words_line(delta_bits):
    """Eight 8-byte words around one base: BDI stores base + deltas."""
    base = 0x1122334455667788
    return b"".join(
        (base + (k * 0x9E3779B97F4A7C15) % (1 << delta_bits)).to_bytes(8, "little")
        for k in range(8)
    )


def test_sc_saturates_along_a_same_row_collision_chain():
    """Eight writes to one line in one batch are eight waves; their
    size swings walk the line's SC 0 -> 3 and the last writes take
    Figure 8's step 2, each wave reading its predecessor's commit."""
    config = resolve_config("comp_wf", start_gap_psi=1_000_000)
    small, large = _words_line(4), _words_line(20)  # BDI: 16 and 40 bytes
    chain = [(7, small if k % 2 else large) for k in range(8)]
    others = [(line, small) for line in range(20, 28)]
    requests = [request for pair in zip(chain, others) for request in pair]
    _, batched = _serial_and_batched(
        config, requests, [len(requests)], endurance_mean=1e6
    )
    results = batched.write_batch(chain)  # a second chain, saturated
    steps = [result.heuristic_step for result in results]
    assert set(steps) == {2}
    assert batched.stats.batch_waves >= 16
    assert batched.engine.metadata[batched.pipeline.remap.map_logical(7)].sc == 3


def test_start_gap_moves_on_first_and_last_request_of_a_segment():
    """psi=8: 25 warm-up writes and a 14-write batch leave the write
    count at 39, so the next 9-write batch (writes 40..48) takes a gap
    move on its first request and on its last."""
    config = resolve_config("comp_wf", start_gap_psi=8)
    warm = [(line, make_requests(1, seed=line)[0][1]) for line in range(N_LINES)]
    requests = warm[:14] + make_requests(9, seed=9) + make_requests(40, seed=10)

    def prepare(controller):
        for line, data in warm[15:]:
            controller.write(line, data)
        assert controller.start_gap.write_count == 25

    serial, batched = _serial_and_batched(
        config, requests, [14, 9, 8, 8], prepare=prepare, endurance_mean=1e6
    )
    assert batched.start_gap.gap_moves == (25 + len(requests)) // 8
    assert batched.stats.gap_move_writes == serial.stats.gap_move_writes > 0


def _wear_out_row(controller, row, cells=128):
    """Put ``cells`` cells of ``row`` one program away from sticking."""
    memory = controller.engine.memory
    positions = np.arange(cells) * 4
    memory.counts[row, positions] = (
        np.ceil(memory.endurance[row, positions]) - 1
    ).astype(memory.counts.dtype)
    memory.row_writes[row] = int(memory.counts[row].max())


def test_barrier_in_the_middle_of_a_segment():
    """A write to a row at its wear-out point splits the batch: the
    writes before it run as one segment, it runs serially, and the
    rest run as a second segment."""
    config = resolve_config("comp_wf", start_gap_psi=1_000_000)
    warm = make_requests(64, seed=4)
    requests = [(line, make_requests(1, seed=50 + line)[0][1]) for line in range(16)]

    def prepare(controller):
        for line, data in warm:
            controller.write(line, data)
        _wear_out_row(controller, controller.pipeline.remap.map_logical(8))

    serial, batched = _serial_and_batched(
        config, requests, [len(requests)], prepare=prepare, endurance_mean=1000.0
    )
    assert batched.stats.barrier_ineligible_row == 1
    assert batched.stats.batch_waves == 2
    assert batched.stats.batch_wave_ops == 15
    assert serial.memory.fault_counts.any()
