"""``LifetimeResult.stats``: every counter reaches results and telemetry."""

import dataclasses
import json

from repro.energy import EnergyModel
from repro.engine.context import ControllerStats
from repro.lifetime import build_simulator
from repro.lifetime.telemetry import TELEMETRY_VERSION, JsonlObserver

STAT_FIELDS = {f.name for f in dataclasses.fields(ControllerStats)}
SMALL = dict(n_lines=24, endurance_mean=20.0, seed=1)


def test_result_stats_is_a_copy_taken_at_return():
    simulator = build_simulator("comp_wf", "gcc", **SMALL)
    first = simulator.run(max_writes=500)
    assert first.stats is not simulator.controller.stats
    frozen = first.stats.copy()
    second = simulator.run(max_writes=1_000)
    assert first.stats == frozen
    assert second.stats.total_flips > first.stats.total_flips


def test_tiered_result_carries_the_tier_counters():
    result = build_simulator("comp_wf_hybrid", "gcc", **SMALL).run(
        max_writes=2_000
    )
    assert result.stats.tier_hits > 0


def test_energy_breakdown_prices_the_result_stats():
    result = build_simulator("comp_wf", "gcc", **SMALL).run(max_writes=1_000)
    breakdown = result.energy_breakdown(scheme="ecp6")
    assert breakdown.total_pj > 0
    assert breakdown == EnergyModel().breakdown(
        result.stats, scheme="ecp6", writes=result.writes_issued
    )


def test_every_counter_reaches_the_lifetime_stream(tmp_path):
    path = tmp_path / "events.jsonl"
    result = build_simulator("comp_wf", "gcc", **SMALL).run(
        max_writes=1_000, observers=(JsonlObserver(path),),
        heartbeat_interval=250,
    )
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["event"] for e in events] == ["start"] + ["heartbeat"] * 4 + ["end"]
    for event in events[1:]:
        assert event["version"] == TELEMETRY_VERSION
        assert set(event["stats"]) == STAT_FIELDS
    assert events[-2]["stats"] == events[-1]["stats"] == result.stats.to_dict()
