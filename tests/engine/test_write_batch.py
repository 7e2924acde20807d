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
from repro.engine.registry import get_system, system_names
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
    or get_system(system).config.start_gap_regions == 1
]


@pytest.mark.parametrize("system, wl_backend", SYSTEM_BACKENDS)
def test_write_batch_matches_serial(system, wl_backend):
    """Every registered system and backend, across batch sizes, under
    heavy wear."""
    config = get_system(system).configured(wl_backend=wl_backend)
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
    config = get_system("comp_wf_freep").config
    controller = make_controller(config, endurance_mean=55.0)
    for index in range(0, 3000, 16):
        controller.write_batch(make_requests(3000)[index:index + 16])
    stats = controller.stats
    assert stats.deaths > 0
    assert stats.remaps > 0
    assert stats.lost_writes > 0


def test_write_batch_serializes_same_line_collisions():
    """Repeated writes to one logical line flush and stay serial-equal."""
    config = get_system("comp_wf").config
    requests = [(5, bytes([value]) * LINE) for value in range(40)]
    serial = make_controller(config)
    serial_results = [serial.write(line, data) for line, data in requests]
    batched = make_controller(config)
    assert batched.write_batch(requests) == serial_results
    assert_same_state(
        state_fingerprint(batched), state_fingerprint(serial), "collisions"
    )


def test_write_batch_validates_payload_size_up_front():
    controller = make_controller(get_system("comp").config)
    before = state_fingerprint(controller)
    with pytest.raises(ValueError, match="64 bytes"):
        controller.write_batch([(0, bytes(LINE)), (1, bytes(3))])
    # Up-front validation: no side effects from the valid prefix.
    assert_same_state(state_fingerprint(controller), before, "validation")


def test_write_batch_with_invariants_falls_back_to_serial():
    """Checkers assert per-write accounting, so batching must stage
    through the fully serial path -- and still match its results."""
    config = get_system("comp_wf").config
    checked = CompressedPCMController(
        config=config,
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=70.0, cov=0.25),
        rng=np.random.default_rng(11),
        n_banks=4,
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
    config = get_system("comp_wf").configured(
        intra_counter_limit=1_000_000,
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
