"""Shared fixtures for the batched-write equivalence tests.

A small banked controller, a mixed-entropy logical write stream, and a
fingerprint of every externally observable piece of controller state,
so a batched run can be compared field by field with its serial replay.
"""

import dataclasses

import numpy as np

from repro.core.controller import CompressedPCMController
from repro.engine.context import SCHEDULER_FIELDS
from repro.pcm import EnduranceModel

LINE = 64
N_LINES = 40


def make_controller(config, endurance_mean=70.0, seed=11):
    return CompressedPCMController(
        config=config.with_overrides(n_banks=4),
        n_lines=N_LINES,
        endurance_model=EnduranceModel(mean=endurance_mean, cov=0.25),
        rng=np.random.default_rng(seed),
    )


def make_requests(count, seed=3, n_lines=N_LINES):
    """A logical write stream over a small mixed-entropy content pool."""
    rng = np.random.default_rng(seed)
    pool = []
    for index in range(10):
        if index % 3 == 0:
            pool.append(rng.integers(0, 3, LINE, dtype=np.uint8).tobytes())
        elif index % 3 == 1:
            pool.append(rng.integers(0, 256, LINE, dtype=np.uint8).tobytes())
        else:
            pool.append(rng.integers(0, 2, LINE, dtype=np.uint8).tobytes())
    return [
        (int(rng.integers(0, n_lines)), pool[int(rng.integers(0, len(pool)))])
        for _ in range(count)
    ]


def state_fingerprint(controller):
    """Every externally observable piece of controller state."""
    engine = controller.engine
    memory = engine.memory
    start_gap = engine.start_gap
    gaps = getattr(start_gap, "_gaps", None)
    forward = getattr(start_gap, "_forward", None)
    if forward is not None:  # WoLFRaM PAD backend
        gap_state = ("pad", tuple(forward), start_gap._partner,
                     start_gap.write_count, start_gap.swaps)
    elif gaps is not None:  # RegionStartGap
        gap_state = [(g.start, g.gap, g.write_count, g.gap_moves) for g in gaps]
    else:
        gap_state = (start_gap.start, start_gap.gap, start_gap.write_count,
                     start_gap.gap_moves)
    intra = engine.intra_wl
    remapper = engine.remapper
    return {
        "stored": memory.stored.copy(),
        "counts": memory.counts.copy(),
        "faulty": memory.faulty.copy(),
        "fault_counts": memory.fault_counts.copy(),
        "dead": engine.dead.copy(),
        "dead_count": engine.dead_count,
        "metadata": [
            (m.start_pointer, m.compressed, m.stored_size, m.encoding, m.sc)
            for m in engine.metadata
        ],
        "repairs": [dict(r) for r in engine.repairs],
        "death_fault_counts": dict(engine.death_fault_counts),
        # Scheduler telemetry describes *how* a stream was executed
        # (waves, barriers) and legitimately differs between a batched
        # run and its serial replay; everything else must be identical.
        "stats": {
            name: value
            for name, value in dataclasses.asdict(engine.stats).items()
            if name not in SCHEDULER_FIELDS
        },
        "start_gap": gap_state,
        "intra_wl": (
            None if intra is None
            else (tuple(intra._counters), tuple(intra._offsets), intra.rotations)
        ),
        "freep": (
            None if remapper is None
            else (tuple(remapper._free_spares),
                  tuple(sorted(remapper._remap.items())),
                  remapper.remaps_performed)
        ),
    }


def assert_same_state(got, want, label=""):
    for key in want:
        got_value, want_value = got[key], want[key]
        if isinstance(want_value, np.ndarray):
            assert np.array_equal(got_value, want_value), f"{label}: {key}"
        else:
            assert got_value == want_value, f"{label}: {key}"
