"""Bank knobs reach the controller through every front end.

``cell_type`` and ``n_banks`` live in :class:`~repro.core.SystemConfig`
alone: each front end takes a resolved config (or config overrides)
and no knob of its own, so ``cell_type="mlc"`` set as an override must
reach an :class:`~repro.pcm.mlc.MLCBankArray`, and ``n_banks`` the
intra-line rotation counters, through every one.
"""

import pytest

from repro.engine.registry import resolve_config
from repro.engine.sweep import SweepRunner
from repro.lifetime import LifetimeSimulator, build_simulator
from repro.pcm.mlc import MLCBankArray
from repro.service import MemoryService, ShardedController, make_stream
from repro.traces import Trace, WriteBack
from repro.validate.lockstep import ValidatingController

MLC = resolve_config("comp_wf", cell_type="mlc", n_banks=4)
LINES = 32
FLEET = dict(endurance_mean=40.0, endurance_cov=0.2, seed=13)
RUN = dict(n_lines=16, endurance_mean=12.0)
MAX_WRITES = 3_000


def _stream(count=300):
    stream = make_stream("memcached", LINES, 13)
    return [(r.line, r.data) for r in stream.iter_requests(count)]


def test_build_simulator():
    mlc = build_simulator("comp_wf", "milc", cell_type="mlc", **RUN)
    assert isinstance(mlc.controller.memory, MLCBankArray)


def _sweep(**overrides):
    runner = SweepRunner(
        systems=("comp_wf",), workers=1, max_writes=MAX_WRITES,
        config_overrides=overrides, **RUN,
    )
    return runner.run_comparison("milc", seed=3)["comp_wf"]


def test_sweep_runner_overrides():
    """A sweep's MLC run is the directly built MLC simulator's run."""
    direct = build_simulator(
        "comp_wf", "milc", cell_type="mlc", seed=3, **RUN
    ).run(max_writes=MAX_WRITES)
    mlc = _sweep(cell_type="mlc")
    assert mlc == direct
    assert mlc != _sweep()


def test_sharded_controller():
    fleet = ShardedController(MLC, LINES, shards=2, **FLEET)
    assert all(
        isinstance(controller.memory, MLCBankArray)
        for controller in fleet.controllers
    )


def test_memory_service_matches_the_mlc_fleet():
    stream = _stream()
    mlc = ShardedController(MLC, LINES, shards=2, **FLEET)
    mlc.write_batch(stream)
    slc = ShardedController(
        resolve_config("comp_wf", n_banks=4), LINES, shards=2, **FLEET
    )
    slc.write_batch(stream)
    with MemoryService(MLC, LINES, shards=2, **FLEET) as service:
        service.submit(stream)
        result = service.stop()
    assert result.stats == mlc.stats
    assert result.stats != slc.stats


def test_validating_controller():
    """The oracle models SLC cells only, so it refuses the MLC bank
    array the override built for the fast controller."""
    with pytest.raises(NotImplementedError, match="SLC banks only"):
        ValidatingController(MLC, 16)


def test_bank_count_reaches_simulators_and_sweeps():
    """``n_banks=4`` sizes the rotation counters of a built simulator,
    and a sweep's 4-bank run is the directly built simulator's run."""
    simulator = build_simulator("comp_wf", "milc", n_banks=4, **RUN)
    assert len(simulator.controller.intra_wl._counters) == 4
    direct = build_simulator(
        "comp_wf", "milc", n_banks=4, seed=3, **RUN
    ).run(max_writes=MAX_WRITES)
    four = _sweep(n_banks=4)
    assert four == direct
    assert four != _sweep()


def _front_end_stats(config):
    """One stream, as one batch, through the simulator, the in-process
    fleet and the service; one shard keeps the chip seed unchanged."""
    stream = _stream()
    simulator = LifetimeSimulator(
        config,
        Trace("memcached", LINES, [WriteBack(line, data) for line, data in stream]),
        n_lines=LINES, **FLEET,
    )
    simulator.run(
        max_writes=len(stream), batch=len(stream), check_interval=len(stream)
    )
    fleet = ShardedController(config, LINES, shards=1, **FLEET)
    fleet.write_batch(stream)
    with MemoryService(config, LINES, shards=1, **FLEET) as service:
        service.submit(stream)
        result = service.stop()
    return simulator.controller.stats, fleet.stats, result.stats


def test_one_bank_count_gives_one_run_through_every_front_end():
    """A 4-bank config runs identically through all three front ends,
    and on Comp+W it differs from the 8-bank run: the bank count
    reaches intra-line wear-leveling."""
    config = resolve_config("comp_w", intra_counter_limit=4)
    four = _front_end_stats(config.with_overrides(n_banks=4))
    assert four[0] == four[1] == four[2]
    eight = _front_end_stats(config)
    assert four[0] != eight[0]
