"""The simulator's ``batch=`` knob: bit-identity and cadence alignment.

``LifetimeSimulator.run(batch=K)`` drains the write stream through the
batched line-parallel engine.  The contract is strict: the result, the
final controller state, and every cadence event (failure checks,
checkpoints, heartbeats) must be indistinguishable from ``batch=1`` --
including across a checkpoint/resume cut that lands mid-way through
what a free-running batch epoch would have been.
"""

import dataclasses

import pytest

from repro.lifetime import build_simulator
from repro.lifetime.checkpoint import latest_checkpoint
from repro.lifetime.telemetry import RunObserver

from tests.engine.helpers import assert_same_state, state_fingerprint

SIM_KWARGS = dict(n_lines=48, endurance_mean=30.0, seed=5)


def behavioural(result):
    """The result without the counters describing *how* the stream was
    executed (scheduler wave telemetry): legitimately zero on a serial
    run and populated on a batched one; every other field must agree."""
    return dataclasses.replace(
        result, stats=result.stats.without_scheduler_telemetry()
    )


def make_sim(system="comp_wf", workload="gcc"):
    return build_simulator(system, workload, **SIM_KWARGS)


class RecordingObserver(RunObserver):
    """Collects the write counts every cadence event fires at."""

    def __init__(self):
        self.starts = []
        self.heartbeats = []
        self.checkpoints = []
        self.ends = []

    def on_run_start(self, simulator, writes_issued):
        self.starts.append(writes_issued)

    def on_heartbeat(self, event):
        self.heartbeats.append(event.writes_issued)

    def on_checkpoint(self, path, writes_issued):
        self.checkpoints.append((path.name, writes_issued))

    def on_run_end(self, result):
        self.ends.append(result.writes_issued)


@pytest.mark.parametrize("system", ["comp_wf", "comp_wf_safer32"])
@pytest.mark.parametrize("batch", [8, 32])
def test_batched_run_is_bit_identical(system, batch):
    serial_sim = make_sim(system)
    serial = serial_sim.run(max_writes=20_000, check_interval=64)
    batched_sim = make_sim(system)
    batched = batched_sim.run(max_writes=20_000, check_interval=64, batch=batch)

    assert behavioural(batched) == behavioural(serial)
    assert batched.stats.batch_waves > 0  # the scheduler actually ran
    assert batched.stats.batch_wave_ops >= batched.stats.batch_waves
    assert serial.stats.batch_waves == 0
    assert batched_sim.writes_issued == serial_sim.writes_issued
    assert batched_sim.trace_cursor == serial_sim.trace_cursor
    assert_same_state(
        state_fingerprint(batched_sim.controller),
        state_fingerprint(serial_sim.controller),
        f"{system} batch={batch}",
    )
    assert serial.failed, "stream too gentle: the run never hit the criterion"


def test_batched_cadence_events_land_on_serial_write_counts(tmp_path):
    streams = {}
    for label, batch in (("serial", 1), ("batched", 10)):
        observer = RecordingObserver()
        sim = make_sim()
        sim.run(
            max_writes=5_000,
            check_interval=64,
            batch=batch,
            checkpoint_dir=tmp_path / label,
            checkpoint_interval=1_000,
            observers=[observer],
            heartbeat_interval=500,
        )
        streams[label] = observer
    serial, batched = streams["serial"], streams["batched"]
    assert batched.starts == serial.starts
    assert batched.heartbeats == serial.heartbeats
    assert batched.checkpoints == serial.checkpoints  # same files, same counts
    assert batched.ends == serial.ends


def test_batched_resume_cut_mid_epoch_is_bit_identical(tmp_path):
    """Interrupt a batched run at a checkpoint that splits an epoch.

    ``checkpoint_interval=700`` is not a multiple of ``batch=32``, so
    the cadence capping truncates the epoch in flight at the cut; the
    resumed continuation (also batched) must still land exactly on the
    uninterrupted serial run.
    """
    serial_sim = make_sim()
    serial = serial_sim.run(max_writes=6_000, check_interval=64)

    interrupted = make_sim()
    interrupted.run(
        max_writes=3_000, check_interval=64, batch=32,
        checkpoint_dir=tmp_path, checkpoint_interval=700,
    )
    resumed_sim = make_sim()
    resumed = resumed_sim.run(
        max_writes=6_000, check_interval=64, batch=32,
        resume_from=latest_checkpoint(tmp_path),
    )

    assert behavioural(resumed) == behavioural(serial)
    assert_same_state(
        state_fingerprint(resumed_sim.controller),
        state_fingerprint(serial_sim.controller),
        "resumed-batched vs serial",
    )


def test_batch_must_be_positive():
    with pytest.raises(ValueError, match="batch"):
        make_sim().run(max_writes=100, batch=0)
