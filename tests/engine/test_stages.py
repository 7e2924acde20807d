"""Unit tests for the composable write-path stages and pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import LINE_BYTES, CompressedPCMController
from repro.engine import (
    CompressStage,
    CorrectionStage,
    EncodingStage,
    PlacementStage,
    ProgramStage,
    RemapStage,
    WriteContext,
    resolve_config,
)
from repro.pcm import EnduranceModel


def build_controller(system="comp_wf", n_lines=16, endurance=10**6, seed=0,
                     **overrides):
    return CompressedPCMController(
        config=resolve_config(system, **overrides),
        n_lines=n_lines,
        endurance_model=EnduranceModel(mean=endurance),
        rng=np.random.default_rng(seed),
    )


def compressible_line(tag=0):
    return tag.to_bytes(4, "little") + bytes(60)


class TestPipelineComposition:
    def test_stage_order_is_the_write_path_order(self):
        pipeline = build_controller().pipeline
        kinds = [type(stage) for stage in pipeline.stages]
        assert kinds == [
            CompressStage, PlacementStage, EncodingStage, ProgramStage,
            CorrectionStage, RemapStage,
        ]

    def test_stages_share_one_engine_state(self):
        controller = build_controller()
        states = {id(stage.state) for stage in controller.pipeline.stages}
        assert states == {id(controller.engine)}


class TestCompressStage:
    def test_compressed_format_chosen_for_compressible_data(self):
        controller = build_controller()
        stage = controller.pipeline.compress
        ctx = WriteContext(physical=0, data=compressible_line())
        stage.run(ctx)
        assert ctx.compressed
        assert ctx.size < LINE_BYTES
        assert ctx.payload == ctx.result.payload

    def test_compression_disabled_stores_raw(self):
        controller = build_controller("baseline")
        ctx = WriteContext(physical=0, data=compressible_line())
        controller.pipeline.compress.run(ctx)
        assert not ctx.compressed
        assert ctx.size == LINE_BYTES
        assert ctx.result is None

    def test_incompressible_data_stores_raw(self):
        controller = build_controller()
        data = np.random.default_rng(1).bytes(LINE_BYTES)
        ctx = WriteContext(physical=0, data=data)
        controller.pipeline.compress.run(ctx)
        assert not ctx.compressed
        assert ctx.size == LINE_BYTES


class TestPlacementStage:
    def test_initial_hint_uses_intra_wl_offset_when_enabled(self):
        controller = build_controller(intra_counter_limit=1)
        placement = controller.pipeline.placement
        bank = controller.engine.bank_of(3)
        for _ in range(5):
            controller.engine.intra_wl.record_write(bank)
        ctx = WriteContext(physical=3, data=compressible_line(), compressed=True)
        assert placement.initial_hint(3, ctx) == controller.engine.intra_wl.offset(bank)

    def test_initial_hint_is_pointer_without_intra_wl(self):
        controller = build_controller("comp")
        controller.engine.metadata.start_pointer[3] = 17
        ctx = WriteContext(physical=3, data=compressible_line(), compressed=True)
        assert controller.pipeline.placement.initial_hint(3, ctx) == 17

    def test_uncompressed_writes_anchor_at_zero(self):
        controller = build_controller()
        ctx = WriteContext(physical=3, data=compressible_line(), compressed=False)
        assert controller.pipeline.placement.initial_hint(3, ctx) == 0

    def test_place_returns_hint_on_fault_free_line(self):
        controller = build_controller()
        ctx = WriteContext(
            physical=0, data=compressible_line(), compressed=True,
            payload=b"x" * 8, size=8, hint=21,
        )
        assert controller.pipeline.placement.place(0, ctx) == 21


class TestCorrectionStage:
    def test_commit_updates_metadata_and_counters(self):
        controller = build_controller()
        result = controller.write(0, compressible_line())
        meta = controller.engine.metadata[result.physical]
        assert meta.compressed
        assert meta.stored_size == result.size_bytes
        assert meta.start_pointer == result.window_start
        assert controller.stats.compressed_writes == 1
        assert controller.stats.uncompressed_writes == 0

    def test_try_remap_without_remapper_is_none(self):
        controller = build_controller()
        assert controller.pipeline.correction.try_remap(0) is None


class TestRemapStage:
    def test_dead_gate_blocks_demand_writes(self):
        controller = build_controller()
        controller.engine.dead[:] = True
        physical = controller.pipeline.remap.map_logical(0)
        assert controller.pipeline.remap.blocked(physical, revival_allowed=False)
        result = controller.write(0, compressible_line())
        assert result.lost and not result.died
        assert controller.stats.lost_writes == 1

    def test_revival_allowed_only_with_the_feature(self):
        wf = build_controller("comp_wf").pipeline.remap
        w = build_controller("comp_w").pipeline.remap
        wf.state.dead[5] = True
        w.state.dead[5] = True
        assert not wf.blocked(5, revival_allowed=True)
        assert w.blocked(5, revival_allowed=True)

    def test_fallback_requires_compressible_result_and_feature(self):
        controller = build_controller()
        stage = controller.pipeline.remap
        ctx = WriteContext(physical=0, data=compressible_line())
        controller.pipeline.compress.run(ctx)
        # Already compressed: no second rescue.
        assert ctx.compressed and not stage.fallback_to_compressed(ctx)
        # Uncompressed-by-heuristic with a small compressed form: rescued.
        ctx.compressed = False
        ctx.size = LINE_BYTES
        assert stage.fallback_to_compressed(ctx)
        assert ctx.compressed and ctx.size == ctx.result.size_bytes

    def test_mark_dead_records_death_and_loss(self):
        controller = build_controller()
        controller.pipeline.remap.mark_dead(4)
        assert controller.engine.dead[4]
        assert controller.stats.deaths == 1
        assert controller.stats.lost_writes == 1
        assert 4 in controller.engine.death_fault_counts


class TestFacadeEquivalence:
    def test_write_read_round_trip_through_pipeline(self):
        controller = build_controller()
        rng = np.random.default_rng(7)
        for step in range(200):
            line = int(rng.integers(0, controller.n_lines))
            data = compressible_line(step) if step % 2 else rng.bytes(LINE_BYTES)
            controller.write(line, data)
            assert controller.read(line) == data

    def test_write_rejects_short_data(self):
        with pytest.raises(ValueError, match="64 bytes"):
            build_controller().write(0, b"short")


#: ``stage_summary()`` of every registered system under both
#: wear-leveling backends (multi-region Start-Gap systems cannot take
#: the region-free WoLFRaM PAD), keyed ``system/backend``.  Recorded
#: when the WoLFRaM descriptions still lived in stage subclasses.
STAGE_SUMMARIES = Path(__file__).with_name("stage_summaries.json")


def _summary(key):
    from repro.engine import SystemSpec

    system, backend = key.split("/")
    config = resolve_config(system, wl_backend=backend)
    return SystemSpec(name=system, description="", config=config).stage_summary()


class TestStageSummaries:
    def test_every_system_is_pinned_on_every_backend_it_takes(self):
        from repro.engine import system_names

        pinned = set(json.loads(STAGE_SUMMARIES.read_text()))
        for system in system_names():
            regions = resolve_config(system).start_gap_regions
            assert f"{system}/startgap_freep" in pinned
            assert (f"{system}/wolfram" in pinned) == (regions == 1)

    @pytest.mark.parametrize("key", sorted(json.loads(STAGE_SUMMARIES.read_text())))
    def test_stage_summary_is_unchanged(self, key):
        assert _summary(key) == json.loads(STAGE_SUMMARIES.read_text())[key]
