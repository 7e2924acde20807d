"""The differential fuzz driver: campaigns, shrinking, corpus, CLI."""

import json

import pytest

from repro.cli import main
from repro.engine import stages
from repro.validate import DivergenceError, run_fuzz, shrink_recipe
from repro.validate.fuzz import (
    normalize_scheme,
    replay_corpus_entry,
    write_corpus_entry,
)


class TestRunFuzz:
    def test_clean_campaigns_report_ok(self):
        report = run_fuzz(
            systems=("comp_wf",), schemes=("ecp6", "aegis"), writes=120,
            seed=0, lines=12, endurance_mean=16.0,
        )
        assert len(report.campaigns) == 2
        assert all(campaign.ok for campaign in report.campaigns)
        assert {c.scheme for c in report.campaigns} == {"ecp6", "aegis17x31"}
        assert all(c.writes_run == 120 for c in report.campaigns)
        assert not report.failures

    def test_campaigns_are_deterministic(self):
        kwargs = dict(systems=("comp_w",), schemes=("safer32",), writes=80,
                      seed=7, lines=10)
        first = run_fuzz(**kwargs)
        second = run_fuzz(**kwargs)
        assert first.campaigns[0].writes_run == second.campaigns[0].writes_run
        assert first.campaigns[0].ok and second.campaigns[0].ok

    def test_default_set_drops_systems_that_reject_the_overrides(self):
        """Only multi-region Start-Gap rejects the WoLFRaM backend; the
        encoded systems are never in the default set."""
        from repro.engine.registry import resolve_config, system_names

        def default_set(**overrides):
            report = run_fuzz(
                schemes=("ecp6",), writes=4, lines=8,
                check_state_every=0, config_overrides=overrides,
            )
            return [campaign.system for campaign in report.campaigns]

        oracle_systems = [
            name for name in system_names()
            if resolve_config(name).encoding == "none"
        ]
        assert "comp_wf_hybrid" in oracle_systems
        assert default_set() == oracle_systems
        assert default_set(wl_backend="wolfram") == [
            name for name in oracle_systems if name != "comp_wf_regions"
        ]

    def test_overrides_no_system_accepts_raise(self):
        with pytest.raises(ValueError, match="no registered system"):
            run_fuzz(schemes=("ecp6",), writes=4,
                     config_overrides={"tier_lines": -1})

    def test_time_budget_skips_not_passes(self):
        report = run_fuzz(
            systems=("comp_wf", "comp"), schemes=("ecp6",), writes=50,
            lines=8, time_budget=0.0,
        )
        assert len(report.skipped) == 2
        assert not any(campaign.ok for campaign in report.campaigns)

    def test_scheme_alias(self):
        assert normalize_scheme("aegis") == "aegis17x31"
        assert normalize_scheme("ecp6") == "ecp6"


def _mutated(monkeypatch):
    """Install the broken window-search predicate (see test_lockstep)."""
    real = stages.find_window

    def broken(faults, size, scheme, start_hint=0, **kw):
        if len(faults) and size < 64:
            return (start_hint + 1) % 64
        return real(faults, size, scheme, start_hint=start_hint, **kw)

    monkeypatch.setattr(stages, "find_window", broken)


class TestDivergenceHandling:
    def test_mutation_produces_shrunk_corpus_entry(self, monkeypatch, tmp_path):
        _mutated(monkeypatch)
        report = run_fuzz(
            systems=("comp_wf",), schemes=("ecp6",), writes=2500,
            seed=0, lines=12, endurance_mean=10.0, corpus_dir=tmp_path,
        )
        (campaign,) = report.campaigns
        assert campaign.divergence is not None
        assert campaign.corpus_path is not None and campaign.corpus_path.exists()

        entry = json.loads(campaign.corpus_path.read_text())
        assert entry["campaign"] == "comp_wf-ecp6"
        assert entry["ops_shrunk_to"] <= entry["ops_shrunk_from"]
        assert entry["recipe"]["ops"], "shrunk recipe lost its write sequence"
        assert entry["diffs"], "corpus entry must carry the diff lines"

        # The corpus entry reproduces under the mutation...
        assert isinstance(replay_corpus_entry(campaign.corpus_path), DivergenceError)
        # ... and is clean once the mutation is reverted.
        monkeypatch.undo()
        assert replay_corpus_entry(campaign.corpus_path) is None

    def test_shrink_rejects_non_reproducing_recipe(self):
        from repro.validate import ValidatingController
        from repro.engine.registry import resolve_config

        config = resolve_config("comp_wf", correction_scheme="ecp6", n_banks=4)
        controller = ValidatingController(config, 8, seed=0)
        controller.write(0, bytes(64))
        recipe = controller._recipe(0, bytes(64))
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_recipe(recipe)

    def test_corpus_entry_counter_avoids_collisions(self, tmp_path):
        recipe = {"ops": [[0, "00" * 64]]}
        first = write_corpus_entry(tmp_path, "sys-ecp6", recipe, ["diff"], 5)
        second = write_corpus_entry(tmp_path, "sys-ecp6", recipe, ["diff"], 5)
        assert first != second
        assert first.exists() and second.exists()


class TestShardedFuzz:
    def test_sharded_campaigns_run_clean(self):
        report = run_fuzz(
            systems=("comp_wf",), schemes=("ecp6", "safer32"), writes=300,
            seed=3, lines=24, endurance_mean=16.0, shards=4,
        )
        assert all(campaign.ok for campaign in report.campaigns)
        assert all(c.writes_run == 300 for c in report.campaigns)

    def test_one_shard_is_the_historical_campaign(self):
        kwargs = dict(systems=("comp_w",), schemes=("ecp6",), writes=200,
                      seed=5, lines=12, endurance_mean=12.0)
        implicit = run_fuzz(**kwargs)
        explicit = run_fuzz(shards=1, **kwargs)
        assert implicit.campaigns[0].ok and explicit.campaigns[0].ok
        assert (
            implicit.campaigns[0].writes_run
            == explicit.campaigns[0].writes_run
        )

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError, match="at least one shard"):
            run_fuzz(systems=("comp_wf",), schemes=("ecp6",), writes=10,
                     lines=8, shards=0)
        with pytest.raises(ValueError, match="shards"):
            run_fuzz(systems=("comp_wf",), schemes=("ecp6",), writes=10,
                     lines=8, shards=9)

    def test_divergence_in_a_shard_yields_a_replayable_entry(
        self, monkeypatch, tmp_path
    ):
        _mutated(monkeypatch)
        report = run_fuzz(
            systems=("comp_wf",), schemes=("ecp6",), writes=2500,
            seed=0, lines=24, endurance_mean=10.0, corpus_dir=tmp_path,
            shards=2, shrink=False,
        )
        (campaign,) = report.campaigns
        assert campaign.divergence is not None
        # The per-shard recipe is self-contained (shard-local lines,
        # shard seed), so it replays without any shard map.
        assert isinstance(replay_corpus_entry(campaign.corpus_path), DivergenceError)
        monkeypatch.undo()
        assert replay_corpus_entry(campaign.corpus_path) is None

    def test_fleet_view_assertions_catch_broken_merges(self):
        from repro.engine.context import ControllerStats
        from repro.validate.fuzz import assert_fleet_view

        good = ControllerStats(
            demand_writes=10, gap_move_writes=2,
            compressed_writes=11, uncompressed_writes=1,
        )
        assert_fleet_view([good, ControllerStats.identity()])
        leaky = ControllerStats(demand_writes=10, compressed_writes=8)
        with pytest.raises(AssertionError, match="write accounting"):
            assert_fleet_view([leaky])


class TestCli:
    def test_fuzz_subcommand_smoke(self, capsys):
        status = main([
            "fuzz", "--systems", "comp_wf", "--schemes", "ecp6",
            "--writes", "60", "--lines", "10", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 divergences" in out

    def test_fuzz_subcommand_reports_divergence(
        self, monkeypatch, tmp_path, capsys
    ):
        _mutated(monkeypatch)
        status = main([
            "fuzz", "--systems", "comp_wf", "--schemes", "ecp6",
            "--writes", "2500", "--lines", "12", "--endurance", "10",
            "--corpus", str(tmp_path), "--no-shrink",
        ])
        out = capsys.readouterr().out
        assert status == 1
        assert "DIVERGED" in out or "divergence" in out
        assert list(tmp_path.glob("divergence-*.json"))

    def test_fuzz_replay_of_corpus_entry(self, monkeypatch, tmp_path, capsys):
        _mutated(monkeypatch)
        run_fuzz(
            systems=("comp_wf",), schemes=("ecp6",), writes=2500,
            seed=0, lines=12, endurance_mean=10.0, corpus_dir=tmp_path,
            shrink=False,
        )
        (path,) = tmp_path.glob("divergence-*.json")
        status = main(["fuzz", "--replay", str(path)])
        assert status == 1  # still reproduces under the mutation
        monkeypatch.undo()
        status = main(["fuzz", "--replay", str(path)])
        capsys.readouterr()
        assert status == 0  # mutation reverted: the recipe is clean

    def test_fuzz_shards_flag_recorded_in_manifest(self, tmp_path, capsys):
        status = main([
            "fuzz", "--systems", "comp_wf", "--schemes", "ecp6",
            "--writes", "120", "--lines", "16", "--shards", "2",
            "--corpus", str(tmp_path),
        ])
        capsys.readouterr()
        assert status == 0
        manifest = json.loads((tmp_path / "campaign-manifest.json").read_text())
        (run,) = manifest["runs"]
        assert run["shards"] == 2
