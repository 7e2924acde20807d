"""The cell-type knob reaches the bank arrays through every front end.

``cell_type`` lives in :class:`~repro.core.SystemConfig` alone: each
front end takes a resolved config (or config overrides) and
no knob of its own, so ``cell_type="mlc"`` set as an override must
reach an :class:`~repro.pcm.mlc.MLCBankArray` through every one.
"""

import pytest

from repro.engine.registry import resolve_config
from repro.engine.sweep import SweepRunner
from repro.lifetime import build_simulator
from repro.pcm.mlc import MLCBankArray
from repro.service import MemoryService, ShardedController, make_stream
from repro.validate.lockstep import ValidatingController

MLC = resolve_config("comp_wf", cell_type="mlc")
LINES = 32
FLEET = dict(endurance_mean=40.0, endurance_cov=0.2, seed=13, n_banks=4)
RUN = dict(n_lines=16, endurance_mean=12.0)
MAX_WRITES = 3_000


def _stream(count=300):
    stream = make_stream("memcached", LINES, 13)
    return [(r.line, r.data) for r in stream.iter_requests(count)]


def test_build_simulator():
    mlc = build_simulator("comp_wf", "milc", cell_type="mlc", **RUN)
    assert isinstance(mlc.controller.memory, MLCBankArray)


def test_sweep_runner_overrides():
    """A sweep's MLC run is the directly built MLC simulator's run."""

    def sweep(**overrides):
        runner = SweepRunner(
            systems=("comp_wf",), workers=1, max_writes=MAX_WRITES,
            config_overrides=overrides, **RUN,
        )
        return runner.run_comparison("milc", seed=3)["comp_wf"]

    direct = build_simulator(
        "comp_wf", "milc", cell_type="mlc", seed=3, **RUN
    ).run(max_writes=MAX_WRITES)
    mlc = sweep(cell_type="mlc")
    assert mlc == direct
    assert mlc != sweep()


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
    slc = ShardedController(resolve_config("comp_wf"), LINES, shards=2, **FLEET)
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
