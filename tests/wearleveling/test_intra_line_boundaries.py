"""Intra-line wear-leveling boundary behavior.

Pins the three edges the paper's cheap per-bank rotation scheme has:
counter saturation exactly at ``counter_limit``, offset wraparound at
the 64-byte line size, and rotation landing on the identical write when
a run is cut by a checkpoint/resume.
"""

import numpy as np
import pytest

from repro.engine.registry import resolve_config
from repro.lifetime import LifetimeSimulator
from repro.traces import SyntheticWorkload, get_profile
from repro.wearleveling import IntraLineWearLeveler


class TestCounterSaturation:
    def test_rotation_fires_exactly_at_counter_limit(self):
        leveler = IntraLineWearLeveler(n_banks=2, counter_limit=5)
        for _ in range(4):
            assert leveler.record_write(0) is False
        assert leveler.writes_until_rotation(0) == 1
        assert leveler.offset(0) == 0
        assert leveler.record_write(0) is True  # write number counter_limit
        assert leveler.offset(0) == 1
        assert leveler.writes_until_rotation(0) == 5  # counter reset
        # The other bank's counter is untouched.
        assert leveler.offset(1) == 0
        assert leveler.writes_until_rotation(1) == 5

    def test_counter_limit_one_rotates_every_write(self):
        leveler = IntraLineWearLeveler(n_banks=1, counter_limit=1)
        for write in range(1, 10):
            assert leveler.record_write(0) is True
            assert leveler.offset(0) == write % 64
        assert leveler.rotations == 9

    def test_power_of_two_default_limit(self):
        leveler = IntraLineWearLeveler(n_banks=1, counter_bits=3)
        assert leveler.counter_limit == 8
        rotated = [leveler.record_write(0) for _ in range(16)]
        assert rotated == [False] * 7 + [True] + [False] * 7 + [True]


class TestOffsetWraparound:
    def test_offset_wraps_at_line_bytes(self):
        leveler = IntraLineWearLeveler(n_banks=1, counter_limit=1)
        for write in range(64):
            leveler.record_write(0)
        assert leveler.rotations == 64
        assert leveler.offset(0) == 0  # full cycle back to byte 0
        leveler.record_write(0)
        assert leveler.offset(0) == 1

    def test_offset_visits_every_byte_once_per_cycle(self):
        leveler = IntraLineWearLeveler(n_banks=1, counter_limit=1)
        seen = set()
        for _ in range(64):
            seen.add(leveler.offset(0))
            leveler.record_write(0)
        assert seen == set(range(64))

    def test_multi_byte_step_wraps_modulo_line(self):
        leveler = IntraLineWearLeveler(n_banks=1, counter_limit=1, step_bytes=24)
        offsets = []
        for _ in range(8):
            leveler.record_write(0)
            offsets.append(leveler.offset(0))
        assert offsets == [24, 48, 8, 32, 56, 16, 40, 0]


class TestRotationAcrossCheckpoint:
    def _simulator(self, limit):
        config = resolve_config(
            "comp_wf", correction_scheme="ecp6", intra_counter_limit=limit,
            n_banks=4,
        )
        workload = SyntheticWorkload(get_profile("gcc"), n_lines=12, seed=6)
        return LifetimeSimulator(
            config, workload, n_lines=12, endurance_mean=200.0, seed=6,
        )

    @staticmethod
    def _registers(simulator):
        intra = simulator.controller.intra_wl
        return (tuple(intra._counters), tuple(intra._offsets), intra.rotations)

    def test_rotation_lands_identically_after_resume(self, tmp_path):
        # Checkpoint mid-count: the counters (not just the offsets) must
        # survive the cut, or the post-resume rotation fires on the
        # wrong write.  The checkpoint at write 90 sits inside a
        # 40-write rotation period, so at least one rotation straddles
        # the cut.
        straight = self._simulator(limit=40)
        straight.run(max_writes=200)
        assert self._registers(straight)[2] > 0, "campaign never rotated"

        interrupted = self._simulator(limit=40)
        interrupted.run(max_writes=90, checkpoint_dir=tmp_path,
                        checkpoint_interval=90)
        mid = self._registers(interrupted)
        assert any(counter != 0 for counter in mid[0]), (
            "checkpoint landed on a rotation edge; pick another interval"
        )

        resumed = self._simulator(limit=40)
        resumed.run(max_writes=200, resume_from=sorted(
            tmp_path.glob("checkpoint-*.pkl"))[0])
        assert self._registers(resumed) == self._registers(straight)
        assert (
            resumed.controller.memory.stored.tolist()
            == straight.controller.memory.stored.tolist()
        )


class TestRejectsBadParameters:
    def test_bad_limits(self):
        with pytest.raises(ValueError):
            IntraLineWearLeveler(n_banks=1, counter_limit=0)
        with pytest.raises(ValueError):
            IntraLineWearLeveler(n_banks=0)
        with pytest.raises(ValueError):
            IntraLineWearLeveler(n_banks=1, step_bytes=64)

    def test_bank_range_checks(self):
        leveler = IntraLineWearLeveler(n_banks=2, counter_limit=4)
        with pytest.raises(IndexError):
            leveler.offset(2)
        with pytest.raises(IndexError):
            leveler.record_write(-1)


class TestRecordWrites:
    """``record_writes`` is the per-write ``offset``/``record_write``
    loop in one call, including rotations that land mid-run."""

    @pytest.mark.parametrize("limit, step", [(1, 1), (3, 1), (5, 7), (2**16, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_write_loop(self, limit, step, seed):
        rng = np.random.default_rng(seed)
        looped = IntraLineWearLeveler(n_banks=4, counter_limit=limit, step_bytes=step)
        batched = IntraLineWearLeveler(n_banks=4, counter_limit=limit, step_bytes=step)
        for run in range(6):
            banks = rng.integers(0, 4, int(rng.integers(1, 40)))
            want = []
            for bank in banks.tolist():
                want.append(looped.offset(bank))
                looped.record_write(bank)
            got = batched.record_writes(banks)
            assert got.tolist() == want, run
            assert batched._counters == looped._counters
            assert batched._offsets == looped._offsets
            assert batched.rotations == looped.rotations
