"""Gap-wraparound boundary audit (pinning tests).

PR 10's issue flagged the cyclic wrap move (``gap == 0``: last physical
slot copies into slot 0, the start register advances) as a suspected
off-by-one site, both in :class:`~repro.wearleveling.StartGap` /
:class:`~repro.wearleveling.RegionStartGap` themselves and across a
checkpoint/resume that straddles the wrap.  The audit found the
arithmetic correct; these tests pin the exact boundary semantics so a
future regression fails loudly instead of silently corrupting mappings.
"""

import pickle
import tempfile

from repro.lifetime import build_simulator
from repro.wearleveling import RegionStartGap, StartGap


def test_wrap_move_exact_semantics():
    sg = StartGap(n_lines=4, psi=1)
    # Walk the gap from its initial slot (4) down to 0.
    for expected_dest in (4, 3, 2, 1):
        movement = sg.on_write()
        assert movement.destination == expected_dest
        assert movement.source == expected_dest - 1
    assert sg.gap == 0 and sg.start == 0
    # The straddling move: last slot -> slot 0, start advances, gap
    # returns to the top.  One full rotation complete.
    movement = sg.on_write()
    assert (movement.source, movement.destination) == (4, 0)
    assert sg.gap == 4 and sg.start == 1


def test_mapping_is_bijective_through_the_wrap():
    sg = StartGap(n_lines=4, psi=1)
    for _ in range(4):
        sg.on_write()
    assert sg.gap == 0
    before = {line: sg.map(line) for line in range(4)}
    sg.on_write()  # the wrap
    after = {line: sg.map(line) for line in range(4)}
    # Only the line that rode the wrap move changed slots.
    moved = [line for line in range(4) if before[line] != after[line]]
    assert moved == [sg.logical_of(0)]
    assert sorted(after.values()) == [0, 1, 2, 3]
    for line in range(4):
        assert sg.logical_of(sg.map(line)) == line
    assert sg.logical_of(sg.gap) is None


def test_pickled_gap_replays_identically_across_the_wrap():
    sg = StartGap(n_lines=5, psi=3)
    # Park one write short of the wrap move (gap at 0, psi counter at 2).
    while not (sg.gap == 0 and sg.write_count % sg.psi == sg.psi - 1):
        sg.on_write()
    clone = pickle.loads(pickle.dumps(sg))
    for _ in range(40):
        a, b = sg.on_write(), clone.on_write()
        assert a == b
    assert (clone.start, clone.gap, clone.write_count) == (
        sg.start, sg.gap, sg.write_count
    )


def test_region_wrap_stays_inside_the_owning_region():
    # 7 lines / 3 regions -> sizes (3, 2, 2): the uneven split puts the
    # last region's slots at the top of the physical range, where a
    # base-offset bug in the wrap move would leak into a neighbor.
    rsg = RegionStartGap(n_lines=7, psi=1, regions=3)
    last_base = rsg._physical_bases[-1]
    top = rsg.physical_lines
    wrapped = False
    for _ in range(30):
        movement = rsg.on_write(6)  # hot line in the last region
        if movement is None:
            continue
        assert last_base <= movement.source < top
        assert last_base <= movement.destination < top
        if movement.destination == last_base:
            wrapped = True
            assert movement.source == top - 1
    assert wrapped, "stream never exercised the wrap move"
    for line in range(7):
        assert rsg.logical_of(rsg.map(line)) == line


def test_checkpoint_straddling_a_wrap_resumes_bit_identically():
    def mk():
        # psi=1 and a tiny array make every checkpoint interval straddle
        # several full gap rotations.
        return build_simulator(
            "comp_wf", "mcf", n_lines=6, endurance_mean=200.0,
            endurance_cov=0.15, seed=9, start_gap_psi=1,
        )

    straight, resumed = mk(), mk()
    resumed.run(max_writes=157)  # mid-rotation stopping point
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        path = resumed.save_checkpoint(checkpoint_dir)
        restored = mk()
        restored.restore(path)
        a = straight.run(max_writes=900)
        b = restored.run(max_writes=900)
    assert a == b  # every run-level field and every counter
