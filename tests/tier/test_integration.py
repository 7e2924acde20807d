"""The tier across the stack: fleet, service, fuzzer, simulator.

The unit layer pins the tier policy; these tests pin the *wiring* --
every surface that can front controllers with DRAM tiers
(:class:`ShardedController`, :class:`MemoryService`,
:func:`run_fuzz`, :func:`run_workload_study`) must expose coherent
reads, conserve every write, and collapse to the bare system at
capacity 0.
"""

from __future__ import annotations

import pytest

from repro.core.config import comp_wf
from repro.engine.registry import resolve_config
from repro.service import MemoryService, ShardedController, make_stream
from repro.tier import HybridController
from repro.validate.fuzz import run_fuzz

LINES = 48
FLEET_KWARGS = dict(endurance_mean=500.0, endurance_cov=0.1, seed=13)


def _stream(count, seed=13, profile="memcached"):
    stream = make_stream(profile, LINES, seed)
    return [(r.line, r.data) for r in stream.iter_requests(count)]


class TestShardedFleet:
    def test_each_shard_gets_its_own_tier(self):
        fleet = ShardedController(
            comp_wf(tier_lines=4, n_banks=4), LINES, shards=3, **FLEET_KWARGS
        )
        assert all(
            isinstance(controller, HybridController)
            for controller in fleet.controllers
        )

    def test_tiered_fleet_conserves_every_write(self):
        fleet = ShardedController(
            comp_wf(tier_lines=4, n_banks=4), LINES, shards=3, **FLEET_KWARGS
        )
        stream = _stream(1500)
        fleet.write_batch(stream)
        stats = fleet.stats
        # Every request reached PCM or was absorbed, net of evictions.
        assert (
            stats.demand_writes
            + stats.tier_pcm_writes_avoided
            - stats.tier_evictions
        ) == len(stream)
        shadow = {line: data for line, data in stream}
        for line, expected in shadow.items():
            assert fleet.read(line) == expected
        resident = sum(len(c.tier) for c in fleet.controllers)
        assert fleet.flush_tiers() == resident
        assert sum(len(c.tier) for c in fleet.controllers) == 0
        # Post-flush the PCM image alone must hold the full state, and
        # the tier never adds PCM traffic.
        for line, expected in shadow.items():
            assert fleet.read(line) == expected
        assert fleet.stats.demand_writes <= len(stream)

    def test_config_tier_lines_fronts_every_shard(self):
        hybrid = resolve_config("comp_wf_hybrid", n_banks=4)
        fleet = ShardedController(hybrid, LINES, shards=2, **FLEET_KWARGS)
        assert [c.tier_lines for c in fleet.controllers] == [16, 16]
        # An overridden capacity replaces the system's, 0 included.
        small = ShardedController(
            resolve_config("comp_wf_hybrid", tier_lines=4, n_banks=4), LINES,
            shards=2, **FLEET_KWARGS,
        )
        assert [c.tier_lines for c in small.controllers] == [4, 4]
        bare = ShardedController(
            resolve_config("comp_wf_hybrid", tier_lines=0, n_banks=4), LINES,
            shards=2, **FLEET_KWARGS,
        )
        assert not any(
            isinstance(c, HybridController) for c in bare.controllers
        )

    def test_flush_tiers_is_a_noop_on_a_bare_fleet(self):
        fleet = ShardedController(comp_wf(n_banks=4), LINES, shards=2, **FLEET_KWARGS)
        fleet.write_batch(_stream(50))
        assert fleet.flush_tiers() == 0

    def test_capacity_zero_fleet_matches_bare_fleet(self):
        stream = _stream(1500)
        bare = ShardedController(comp_wf(n_banks=4), LINES, shards=2, **FLEET_KWARGS)
        # comp_wf_hybrid is comp_wf plus a 16-line tier: overridden to
        # 0 lines it must run exactly the bare fleet.
        zero = ShardedController(
            resolve_config("comp_wf_hybrid", tier_lines=0, n_banks=4), LINES,
            shards=2, **FLEET_KWARGS,
        )
        bare.write_batch(stream)
        zero.write_batch(stream)
        assert bare.stats == zero.stats
        for line in range(LINES):
            assert bare.read(line) == zero.read(line)

    def test_fleet_stats_aggregate_tier_counters(self):
        fleet = ShardedController(
            comp_wf(tier_lines=4, n_banks=4), LINES, shards=2, **FLEET_KWARGS
        )
        fleet.write_batch(_stream(400))
        stats = fleet.stats
        assert stats.tier_pcm_writes_avoided > 0
        assert stats.tier_pcm_writes_avoided == sum(
            s.tier_pcm_writes_avoided for s in fleet.shard_stats()
        )


class TestMemoryService:
    def test_service_with_tiers_matches_the_inprocess_fleet(self):
        stream = _stream(300)
        reference = ShardedController(
            comp_wf(tier_lines=4, n_banks=4), LINES, shards=2, **FLEET_KWARGS
        )
        reference.write_batch(stream)
        # The service's tier_lines keyword overrides the config's.
        with MemoryService(
            comp_wf(n_banks=4), LINES, shards=2, tier_lines=4, **FLEET_KWARGS
        ) as service:
            service.submit(stream)
            for line in range(LINES):
                assert service.read(line) == reference.read(line)
            result = service.stop()
        assert result.stats == reference.stats


    def test_config_tier_lines_reaches_every_worker(self):
        hybrid = resolve_config("comp_wf_hybrid", n_banks=4)
        stream = _stream(300)
        reference = ShardedController(hybrid, LINES, shards=2, **FLEET_KWARGS)
        reference.write_batch(stream)
        with MemoryService(hybrid, LINES, shards=2, **FLEET_KWARGS) as service:
            service.submit(stream)
            result = service.stop()
        assert result.stats.tier_hits > 0
        assert result.stats == reference.stats


class TestFuzzWithTier:
    def test_lockstep_validates_the_post_tier_stream(self):
        report = run_fuzz(
            systems=("comp_wf",), schemes=("ecp6",), writes=800,
            seed=2, config_overrides={"tier_lines": 8},
        )
        assert report.campaigns and not report.failures

    def test_a_systems_own_tier_runs_under_the_oracle(self, monkeypatch):
        """comp_wf_hybrid's campaign runs through its own 16-line tier
        with no override given."""
        import repro.tier

        built = []

        class RecordingHybrid(repro.tier.HybridController):
            def __init__(self, inner):
                super().__init__(inner)
                built.append(self)

        monkeypatch.setattr(repro.tier, "HybridController", RecordingHybrid)
        report = run_fuzz(
            systems=("comp_wf_hybrid",), schemes=("ecp6",), writes=600,
            seed=2,
        )
        assert report.campaigns and not report.failures
        assert [controller.tier_lines for controller in built] == [16]
        assert built[0].tier.stats.tier_hits > 0

    def test_rejects_negative_tier(self):
        with pytest.raises(ValueError, match="tier_lines"):
            run_fuzz(systems=("comp_wf",), schemes=("ecp6",),
                     writes=10, config_overrides={"tier_lines": -1})


class TestLifetimeStudy:
    def test_tier_reduces_pcm_write_traffic(self):
        """The headline CARAM effect at simulator level: the hybrid's
        PCM write stream is strictly lighter than the bare one on a
        write-hot workload, and the run records the tier telemetry."""
        from repro.engine import SweepRunner

        settings = dict(
            systems=("comp_wf",), n_lines=48, endurance_mean=30.0,
            max_writes=400_000,
        )
        bare = SweepRunner(**settings).run_comparison("mcf", seed=3)["comp_wf"]
        tiered = SweepRunner(
            config_overrides={"tier_lines": 8}, **settings
        ).run_comparison("mcf", seed=3)["comp_wf"]
        assert bare.failed and tiered.failed
        # Fewer PCM stores per demand write -> the hybrid survives at
        # least as many demand writes as the bare system.
        assert tiered.writes_issued >= bare.writes_issued
        assert tiered.stats.stored_writes < tiered.writes_issued

    def test_tier_lines_zero_turns_a_systems_own_tier_off(self):
        """A present override applies as given, 0 included; an absent
        one keeps the system's own tier (comp_wf_hybrid's 16 lines)."""
        from repro.engine import SweepRunner

        settings = dict(
            systems=("comp_wf_hybrid",), n_lines=16, endurance_mean=12,
            max_writes=5000,
        )
        bare = SweepRunner(
            config_overrides={"tier_lines": 0}, **settings
        ).run_comparison("milc")
        own = SweepRunner(**settings).run_comparison("milc")
        assert bare["comp_wf_hybrid"].stats.tier_hits == 0
        assert own["comp_wf_hybrid"].stats.tier_hits > 0

    def test_tier_runs_on_the_parallel_path(self):
        from repro.engine import SweepRunner

        settings = dict(
            systems=("baseline", "comp_wf"), n_lines=16,
            endurance_mean=12.0, max_writes=400_000,
            config_overrides={"tier_lines": 4},
        )
        serial = SweepRunner(**settings).run_comparison("mcf", seed=3)
        parallel = SweepRunner(workers=2, **settings).run_comparison("mcf", seed=3)
        assert parallel == serial
        assert serial["comp_wf"].stats.tier_hits > 0


def test_every_builder_fronts_the_config_tier(monkeypatch):
    """The simulator, the fleet and the fuzzer each build the config's
    16-line tier through ``repro.tier.with_tier``."""
    import repro.validate.fuzz as fuzz
    from repro.lifetime import LifetimeSimulator
    from repro.tier import with_tier
    from repro.traces import SyntheticWorkload, get_profile

    config = resolve_config("comp_wf_hybrid")
    simulator = LifetimeSimulator(
        config, SyntheticWorkload(get_profile("milc"), n_lines=LINES, seed=1),
        LINES,
    )
    fleet = ShardedController(config, LINES, shards=2, **FLEET_KWARGS)
    fuzzed = []

    def spy(controller):
        fuzzed.append(with_tier(controller))
        return fuzzed[-1]

    monkeypatch.setattr(fuzz, "with_tier", spy)
    run_fuzz(systems=("comp_wf_hybrid",), schemes=("ecp6",), writes=20,
             shards=2, shrink=False)
    built = [simulator.controller, *fleet.controllers, *fuzzed]
    assert len(built) == 5
    assert all(isinstance(c, HybridController) for c in built)
    assert [c.tier_lines for c in built] == [16] * 5
