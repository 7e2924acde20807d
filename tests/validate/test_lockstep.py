"""Lockstep differential execution: clean runs, divergences, recipes.

The mutation tests are the acceptance check for the whole oracle: each
deliberately breaks one vectorized fast-path predicate and asserts the
lockstep diff catches it with a recipe that reproduces the failure.
"""

import dataclasses

import numpy as np
import pytest

from repro.compression.fpc import FPCCompressor
from repro.engine import stages
from repro.engine.registry import resolve_config
from repro.tier import HybridController
from repro.validate import (
    DivergenceError,
    ValidatingController,
    controller_from_recipe,
    replay_recipe,
)
from repro.validate.fuzz import _PayloadPalette


def _campaign(config, *, lines=24, endurance=16.0, seed=3,
              writes=800, payload_seed=5):
    """Drive one lockstep campaign on 4 banks; returns the controller."""
    controller = ValidatingController(
        config.with_overrides(n_banks=4), lines, endurance_mean=endurance,
        endurance_cov=0.2, seed=seed,
    )
    palette = _PayloadPalette(np.random.default_rng(payload_seed), lines)
    for _ in range(writes):
        logical, payload = palette.next_op()
        controller.write(logical, payload)
    controller.verify_state()
    return controller


class TestCleanLockstep:
    def test_worn_campaign_agrees_with_deaths_and_revivals(self):
        # Small psi so Start-Gap cycles fast enough to revive dead
        # blocks within the campaign; tiny endurance so blocks die.
        config = resolve_config(
            "comp_wf", correction_scheme="ecp6", start_gap_psi=23
        )
        controller = _campaign(config)
        stats = controller.fast.stats
        assert stats.deaths > 0, "campaign too gentle to exercise death"
        assert stats.revivals > 0, "campaign never exercised revival"
        assert stats.window_slides > 0

    def test_freep_campaign_exercises_remap(self):
        config = resolve_config(
            "comp_wf_freep", correction_scheme="ecp6", start_gap_psi=23
        )
        controller = _campaign(config)
        assert controller.fast.stats.remaps > 0, "FREE-p remap never fired"

    def test_region_start_gap_and_safer_agree(self):
        config = resolve_config(
            "comp_wf_regions", correction_scheme="safer32", start_gap_psi=23
        )
        controller = _campaign(config, writes=600)
        assert controller.fast.stats.deaths > 0

    def test_tier_campaign_reaches_death_and_revival_behind_the_tier(self):
        """A 4-line tier passes enough writes on for PCM to wear out, so
        the oracle checks death and revival on the post-tier stream (the
        system's own 16-line tier absorbs all but about 500 of them)."""
        config = resolve_config("comp_wf_hybrid", tier_lines=4, n_banks=4)
        inner = ValidatingController(
            config, 24, endurance_mean=32.0, endurance_cov=0.2, seed=1,
        )
        hybrid = HybridController(inner)
        palette = _PayloadPalette(np.random.default_rng(1), 24)
        for _ in range(5000):
            hybrid.write(*palette.next_op())
        hybrid.verify_state()
        stats = inner.fast.stats
        assert stats.deaths > 0, "no line died behind the tier"
        assert stats.revivals > 0, "no dead line was revived behind the tier"


def _batched_campaign(config, *, lines=24, endurance=16.0, seed=3,
                      writes=800, payload_seed=5, chunk_seed=9):
    """Drive one lockstep campaign through write_batch; returns it.

    Chunk sizes vary randomly from 1 to 32, so the campaign covers the
    degenerate single-write batch, collision-induced flushes, and full
    vectorized epochs.
    """
    controller = ValidatingController(
        config.with_overrides(n_banks=4), lines, endurance_mean=endurance,
        endurance_cov=0.2, seed=seed,
    )
    palette = _PayloadPalette(np.random.default_rng(payload_seed), lines)
    chunks = np.random.default_rng(chunk_seed)
    issued = 0
    while issued < writes:
        size = min(int(chunks.integers(1, 33)), writes - issued)
        controller.write_batch([palette.next_op() for _ in range(size)])
        issued += size
    controller.verify_state()
    return controller


class TestBatchedLockstep:
    """The batched engine against the serial oracle (strongest check)."""

    def test_batched_comp_wf_agrees_through_wearout(self):
        config = resolve_config(
            "comp_wf", correction_scheme="ecp6", start_gap_psi=23
        )
        controller = _batched_campaign(config)
        stats = controller.fast.stats
        assert stats.deaths > 0, "campaign too gentle to exercise death"
        assert stats.window_slides > 0

    def test_batched_safer_campaign_agrees(self):
        config = resolve_config(
            "comp_wf", correction_scheme="safer32", start_gap_psi=23
        )
        controller = _batched_campaign(config, writes=600)
        assert controller.fast.stats.deaths > 0

    def test_batched_results_equal_serial_lockstep(self):
        config = resolve_config("comp_wf", correction_scheme="ecp6")
        serial = _campaign(config, writes=400)
        batched = _batched_campaign(config, writes=400)
        assert batched.ops == serial.ops  # identical stimulus...
        assert (  # ... identical verdicts (modulo wave telemetry)
            batched.fast.stats.without_scheduler_telemetry()
            == serial.fast.stats.without_scheduler_telemetry()
        )

    def test_batched_oracle_catches_missed_wearout(self):
        """A row kernel that never detects wear-out must be flushed out."""
        from repro.pcm.bank import PCMBankArray

        config = resolve_config("comp_wf", correction_scheme="ecp6")
        real_write_rows = PCMBankArray.write_rows

        def blind_write_rows(self, rows, targets):
            # Mutation: inflate the endurance seen by the batched
            # kernel, so batch-path writes never mark new faults while
            # the serial oracle does.
            saved = self.endurance
            self.endurance = saved + np.uint64(1_000)
            try:
                return real_write_rows(self, rows, targets)
            finally:
                self.endurance = saved

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PCMBankArray, "write_rows", blind_write_rows)
            with pytest.raises(DivergenceError) as excinfo:
                _batched_campaign(config, writes=3000, endurance=12.0)
        assert excinfo.value.recipe["ops"]


class TestRecipes:
    def test_recipe_is_json_serializable_and_rebuildable(self):
        config = resolve_config("comp_wf", correction_scheme="ecp6", n_banks=4)
        controller = ValidatingController(config, 8, seed=1)
        controller.write(3, bytes(64))
        recipe = controller._recipe(3, bytes(64))
        import json

        rebuilt = controller_from_recipe(json.loads(json.dumps(recipe)))
        assert rebuilt.config == config
        assert rebuilt.n_lines == 8
        assert rebuilt.seed == 1
        assert "n_banks" not in recipe  # the config carries it

    def test_older_recipe_keeps_its_top_level_bank_count(self):
        """Recipe files written before the config carried ``n_banks``
        stored it at the top level; they still rebuild on their banks."""
        config = resolve_config("comp_wf", correction_scheme="ecp6")
        recipe = ValidatingController(config, 8, seed=1)._recipe(3, bytes(64))
        del recipe["config"]["n_banks"]
        recipe["n_banks"] = 4
        rebuilt = controller_from_recipe(recipe)
        assert rebuilt.config == config.with_overrides(n_banks=4)
        assert len(rebuilt.oracle.intra_wl.counters) == 4

    def test_replay_of_clean_sequence_returns_none(self):
        config = resolve_config("comp_wf", correction_scheme="ecp6", n_banks=4)
        controller = ValidatingController(config, 8, seed=1)
        payloads = [bytes([i]) * 64 for i in range(6)]
        for index, payload in enumerate(payloads):
            controller.write(index % 8, payload)
        recipe = controller._recipe(*controller.ops[-1])
        assert replay_recipe(recipe) is None


def _run_until_divergence(config, *, max_writes=3000, **kwargs):
    """Drive a campaign expecting a mutation-induced divergence."""
    controller = ValidatingController(
        config.with_overrides(n_banks=4), kwargs.pop("lines", 24),
        endurance_mean=kwargs.pop("endurance", 12.0), endurance_cov=0.2,
        seed=kwargs.pop("seed", 3),
    )
    palette = _PayloadPalette(np.random.default_rng(7), 24)
    with pytest.raises(DivergenceError) as excinfo:
        for _ in range(max_writes):
            logical, payload = palette.next_op()
            controller.write(logical, payload)
        controller.verify_state()
        pytest.fail("mutated pipeline was never caught by the oracle")
    return excinfo.value


class TestMutationsAreCaught:
    """Seeded faults in the fast path must be flushed out by the oracle."""

    def test_broken_window_search_predicate_is_caught(self):
        config = resolve_config("comp_wf", correction_scheme="ecp6")
        real_find_window = stages.find_window

        def broken_find_window(faults, size, scheme, start_hint=0, **kw):
            # Mutation: ignore fault positions once any exist -- the
            # exact class of bug the window-placement stage must not
            # have (placing payload bytes over stuck cells).
            if len(faults) and size < 64:
                return (start_hint + 1) % 64
            return real_find_window(faults, size, scheme, start_hint=start_hint, **kw)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stages, "find_window", broken_find_window)
            error = _run_until_divergence(config)
            assert error.recipe["ops"], "recipe must carry the write sequence"
            assert any(
                "window" in diff or "stats" in diff or "stored" in diff
                or "result" in diff
                for diff in error.diffs
            )
            # The recipe is usable: replaying it under the same mutation
            # reproduces the divergence from scratch.
            replayed = replay_recipe(error.recipe)
            assert isinstance(replayed, DivergenceError)
        # ... and with the mutation reverted, the same recipe is clean.
        assert replay_recipe(error.recipe) is None

    def test_fpc_size_lie_is_caught(self):
        config = resolve_config("comp_wf", correction_scheme="ecp6")
        real_compress = FPCCompressor.compress

        def lying_compress(self, data):
            result = real_compress(self, data)
            # Mutation: under-report the FPC bitstream size, flipping
            # best-of selections and corrupting the stored-size metadata.
            return dataclasses.replace(
                result, size_bits=max(8, result.size_bits - 48)
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FPCCompressor, "compress", lying_compress)
            error = _run_until_divergence(config, max_writes=200)
            replayed = replay_recipe(error.recipe)
            assert isinstance(replayed, DivergenceError)
        assert replay_recipe(error.recipe) is None
