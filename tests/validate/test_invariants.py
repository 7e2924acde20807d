"""Engine invariant checkers and the checkpoint round-trip checker."""

import numpy as np
import pytest

from repro.core import CompressedPCMController
from repro.engine.context import WriteResult
from repro.engine.registry import get_system
from repro.lifetime import LifetimeSimulator
from repro.pcm import EnduranceModel
from repro.traces import SyntheticWorkload, get_profile
from repro.validate import (
    FlipWearConservation,
    InvariantViolation,
    StatsConservation,
    WindowWithinLine,
    check_checkpoint_roundtrip,
    controller_state_snapshot,
    default_invariants,
)


def _controller(invariants=(), n_lines=16, endurance=16.0, seed=2):
    config = get_system("comp_wf").configured(correction_scheme="ecp6")
    return CompressedPCMController(
        config, n_lines, EnduranceModel(mean=endurance, cov=0.2),
        np.random.default_rng(seed), n_banks=4, invariants=invariants,
    )


def _drive(controller, writes=400, seed=9):
    rng = np.random.default_rng(seed)
    for _ in range(writes):
        logical = int(rng.integers(controller.n_lines))
        kind = int(rng.integers(3))
        if kind == 0:
            data = bytes(64)
        elif kind == 1:
            data = bytes(rng.integers(256, size=8, dtype=np.uint8)) * 8
        else:
            data = bytes(rng.integers(256, size=64, dtype=np.uint8))
        controller.write(logical, data)


class TestInvariantHooks:
    def test_default_invariants_pass_on_a_worn_run(self):
        controller = _controller(invariants=default_invariants())
        _drive(controller)
        assert controller.stats.deaths > 0  # the checkers saw real churn

    def test_checkers_are_pure_observers(self):
        checked = _controller(invariants=default_invariants())
        plain = _controller(invariants=())
        _drive(checked)
        _drive(plain)
        assert checked.memory.stored.tolist() == plain.memory.stored.tolist()
        assert checked.memory.counts.tolist() == plain.memory.counts.tolist()
        assert checked.stats.total_flips == plain.stats.total_flips

    def test_stats_conservation_trips_on_corrupted_counter(self):
        controller = _controller(invariants=(StatsConservation(),))
        controller.write(0, bytes(64))
        controller.stats.lost_writes += 1  # break the conservation law
        with pytest.raises(InvariantViolation, match="stats-conservation"):
            controller.write(1, bytes(64))

    def test_window_checker_rejects_fabricated_bad_results(self):
        controller = _controller(invariants=())
        controller.write(0, bytes(64))
        checker = WindowWithinLine()
        committed = dict(flips=0, died=False, revived=False, lost=False)
        with pytest.raises(InvariantViolation, match="out of range"):
            checker.after_write(controller.engine, WriteResult(
                physical=0, compressed=True, size_bytes=8, window_start=64,
                **committed))
        with pytest.raises(InvariantViolation, match="compressed write"):
            checker.after_write(controller.engine, WriteResult(
                physical=0, compressed=True, size_bytes=64, window_start=0,
                **committed))
        with pytest.raises(InvariantViolation, match="disagrees"):
            # Line 0 really stores the zero line (compressed to 1 byte);
            # a result claiming an uncompressed commit contradicts it.
            checker.after_write(controller.engine, WriteResult(
                physical=controller.pipeline.remap.map_logical(0),
                compressed=False, size_bytes=64, window_start=0,
                **committed))


class TestFlipWearConservation:
    """Energy accounting ground truth: flips counted == cells worn.

    The rescue (compression fallback after a failed uncompressed
    attempt) and spare-remap paths re-enter the program stage for the
    same demand write; these runs pin down that neither path prices a
    cell twice nor drops an attempt's wear.
    """

    def test_holds_across_rescue_and_remap_churn(self):
        config = get_system("comp_wf_freep").configured(
            correction_scheme="ecp6"
        )
        controller = CompressedPCMController(
            config, 32, EnduranceModel(mean=16.0, cov=0.2),
            np.random.default_rng(3), n_banks=4,
            invariants=(FlipWearConservation(),),
        )
        _drive(controller, writes=600, seed=11)
        # The run must actually have exercised the risky paths.
        assert controller.stats.remaps > 0
        assert controller.stats.deaths > 0
        assert controller.stats.total_flips == controller.memory.counts.sum()

    def test_holds_with_a_line_encoder_attached(self):
        # Encoder flag cells live outside the array, so attaching one
        # must not perturb the array-side conservation law.
        for system in ("comp_wf_wire", "comp_coset"):
            config = get_system(system).configured(correction_scheme="ecp6")
            controller = CompressedPCMController(
                config, 16, EnduranceModel(mean=24.0, cov=0.2),
                np.random.default_rng(5), n_banks=4,
                invariants=(FlipWearConservation(),),
            )
            _drive(controller, writes=1500, seed=13)
            assert controller.stats.encoding_flag_set_flips > 0

    def test_trips_on_double_counted_flip(self):
        controller = _controller(invariants=(FlipWearConservation(),))
        controller.write(0, bytes(range(64)))
        controller.stats.total_flips += 1  # simulate a double-count
        with pytest.raises(InvariantViolation, match="flip-wear-conservation"):
            controller.write(1, bytes(range(64)))


class TestCheckpointRoundtrip:
    def _simulator(self):
        config = get_system("comp_wf").configured(correction_scheme="ecp6")
        workload = SyntheticWorkload(get_profile("gcc"), n_lines=12, seed=4)
        return LifetimeSimulator(
            config, workload, n_lines=12, endurance_mean=24.0, seed=4,
            n_banks=4,
        )

    def test_roundtrip_passes_on_live_simulator(self, tmp_path):
        simulator = self._simulator()
        simulator.run(max_writes=300)
        check_checkpoint_roundtrip(simulator, tmp_path)

    def test_roundtrip_detects_snapshot_drift(self):
        simulator = self._simulator()
        simulator.run(max_writes=100)
        snapshot = controller_state_snapshot(simulator.controller)
        # Same-state snapshots compare equal; a mutated one must not.
        assert snapshot == controller_state_snapshot(simulator.controller)
        simulator.controller.stats.total_flips += 1
        assert snapshot != controller_state_snapshot(simulator.controller)

    def test_roundtrip_after_resume_matches(self, tmp_path):
        simulator = self._simulator()
        simulator.run(max_writes=200, checkpoint_dir=tmp_path,
                      checkpoint_interval=100)
        resumed = self._simulator()
        resumed.run(max_writes=200, resume_from=sorted(
            tmp_path.glob("checkpoint-*.pkl"))[0])
        assert (
            controller_state_snapshot(resumed.controller)
            == controller_state_snapshot(simulator.controller)
        )
