"""Checkpoint/resume durability: the load-bearing property is that a
run interrupted at an *arbitrary* write count and resumed from its
latest checkpoint produces a bit-identical
:class:`~repro.lifetime.results.LifetimeResult` to a never-interrupted
run -- same writes_issued, dead_fraction, flip counters, everything.
The runs here are tiny (they die within a few thousand writes) so the
equivalence checks stay fast.
"""

from __future__ import annotations

import gzip
import itertools
import json
import types
from pathlib import Path

import pytest

from repro.core.metadata import LineTable
from repro.lifetime import (
    Checkpoint,
    LifetimeSimulator,
    RunObserver,
    build_simulator,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.lifetime.telemetry import JsonlObserver
from repro.traces import SyntheticWorkload, Trace, get_profile

SMALL = dict(n_lines=24, endurance_mean=12.0, seed=3)
BUDGET = 600_000


def small_simulator(system="comp_wf", workload="milc"):
    return build_simulator(system, workload, **SMALL)


# An awkward interruption point: not a multiple of the checkpoint
# interval, the heartbeat interval, or the failure-check interval.
INTERRUPT_AT = 1_337
CHECKPOINT_EVERY = 500


class TestResumeEquivalence:
    @pytest.fixture(scope="class")
    def golden(self):
        return small_simulator().run(max_writes=BUDGET)

    def test_run_actually_dies(self, golden):
        assert golden.failed and golden.writes_issued < BUDGET

    def test_interrupted_and_resumed_run_is_bit_identical(self, golden, tmp_path):
        interrupted = small_simulator()
        interrupted.run(
            max_writes=INTERRUPT_AT,
            checkpoint_dir=tmp_path,
            checkpoint_interval=CHECKPOINT_EVERY,
        )
        resume_point = latest_checkpoint(tmp_path)
        assert resume_point is not None
        # A *fresh* simulator restores the checkpoint, discarding the
        # interrupted run's post-checkpoint progress, and continues.
        resumed = small_simulator().run(
            max_writes=BUDGET, resume_from=resume_point
        )
        assert resumed == golden  # full LifetimeResult equality

    def test_resume_restores_the_write_counter(self, tmp_path):
        interrupted = small_simulator()
        interrupted.run(
            max_writes=INTERRUPT_AT,
            checkpoint_dir=tmp_path,
            checkpoint_interval=CHECKPOINT_EVERY,
        )
        checkpoint = read_checkpoint(latest_checkpoint(tmp_path))
        assert checkpoint.writes_issued == (
            INTERRUPT_AT // CHECKPOINT_EVERY
        ) * CHECKPOINT_EVERY

    def test_double_interruption_still_bit_identical(self, golden, tmp_path):
        """Kill, resume, kill again, resume again -- still identical."""
        first = small_simulator()
        first.run(max_writes=INTERRUPT_AT, checkpoint_dir=tmp_path,
                  checkpoint_interval=CHECKPOINT_EVERY)
        second = small_simulator()
        second.run(max_writes=INTERRUPT_AT + 997, checkpoint_dir=tmp_path,
                   checkpoint_interval=CHECKPOINT_EVERY,
                   resume_from=latest_checkpoint(tmp_path))
        final = small_simulator().run(
            max_writes=BUDGET, resume_from=latest_checkpoint(tmp_path)
        )
        assert final == golden

    def test_trace_replay_resumes_from_the_cursor(self, tmp_path):
        """Trace sources must not restart at write 0 after a resume."""
        source = SyntheticWorkload(get_profile("milc"), n_lines=16, seed=7)
        trace = source.generate_trace(2_000)

        from repro.core import comp_wf

        def trace_sim():
            return LifetimeSimulator(
                config=comp_wf(),
                source=Trace(trace.workload, trace.n_lines, list(trace.writes)),
                n_lines=16, endurance_mean=10.0, seed=4,
            )

        golden = trace_sim().run(max_writes=200_000)
        assert golden.failed
        interrupted = trace_sim()
        interrupted.run(max_writes=777, checkpoint_dir=tmp_path,
                        checkpoint_interval=250)
        resumed = trace_sim().run(
            max_writes=200_000, resume_from=latest_checkpoint(tmp_path)
        )
        assert resumed == golden


class TestBatchedResume:
    """Scheduler observability counters must survive checkpoint/resume.

    ``LifetimeResult`` equality covers ``batch_waves``,
    ``batch_wave_ops`` and ``batch_wave_width_max``, so comparing a
    resumed batched run against an uninterrupted one asserts counter
    continuity, not just simulation-state continuity.  Both runs use
    the same checkpoint cadence: with ``batch > 1`` epochs are capped
    at cadence boundaries, so the cadence is part of the wave
    structure.
    """

    BATCH = 8

    def _batched_run(self, tmp_path, name, max_writes, resume_from=None):
        simulator = small_simulator()
        result = simulator.run(
            max_writes=max_writes, batch=self.BATCH,
            checkpoint_dir=tmp_path / name,
            checkpoint_interval=CHECKPOINT_EVERY,
            resume_from=resume_from,
        )
        return simulator, result

    def test_batched_resume_preserves_wave_counters(self, tmp_path):
        _, golden = self._batched_run(tmp_path, "golden", BUDGET)
        assert golden.failed and golden.stats.batch_waves > 0
        self._batched_run(tmp_path, "interrupted", INTERRUPT_AT)
        resume_point = latest_checkpoint(tmp_path / "interrupted")
        checkpoint = read_checkpoint(resume_point)
        # The checkpointed controller already carries wave telemetry.
        assert checkpoint.controller.stats.batch_waves > 0
        _, resumed = self._batched_run(
            tmp_path, "interrupted", BUDGET, resume_from=resume_point
        )
        assert resumed == golden  # includes batch_wave_* continuity

    def test_scheduler_with_a_retired_attribute_still_resumes(
        self, tmp_path
    ):
        """Checkpoints once pickled the batch scheduler while it still
        held a process-pool slot (always saved as ``None``).  Such a
        checkpoint must keep loading and resume bit-identically to an
        uninterrupted run."""
        from repro.lifetime.checkpoint import CHECKPOINT_VERSION

        retired = "bank_parallel"  # the slot's attribute name
        _, golden = self._batched_run(tmp_path, "golden", BUDGET)
        self._batched_run(tmp_path, "interrupted", INTERRUPT_AT)
        checkpoint = read_checkpoint(
            latest_checkpoint(tmp_path / "interrupted")
        )
        assert checkpoint.version == CHECKPOINT_VERSION == 4
        checkpoint.controller.scheduler.__dict__[retired] = None
        path = write_checkpoint(checkpoint, tmp_path / "older")
        reloaded = read_checkpoint(path)
        assert reloaded.controller.scheduler.__dict__[retired] is None
        _, resumed = self._batched_run(
            tmp_path, "older", BUDGET, resume_from=path
        )
        assert resumed == golden


class TestVersionCompatibility:
    def _checkpoint_from_run(self, tmp_path):
        simulator = small_simulator()
        simulator.run(max_writes=600, checkpoint_dir=tmp_path,
                      checkpoint_interval=500)
        return read_checkpoint(latest_checkpoint(tmp_path))

    def test_current_checkpoints_carry_the_tier_capacity(self, tmp_path):
        from repro.lifetime.checkpoint import CHECKPOINT_VERSION

        checkpoint = self._checkpoint_from_run(tmp_path)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.controller.config.tier_lines == 0

    def test_version1_checkpoint_without_tier_field_still_resumes(
        self, tmp_path
    ):
        """Pre-tier snapshots (version 1, a pickled config without
        ``tier_lines``) must keep loading and resuming as the tier-less
        runs they were."""
        checkpoint = self._checkpoint_from_run(tmp_path)
        stale = Checkpoint(**{**checkpoint.__dict__, "version": 1})
        del vars(stale.controller.config)["tier_lines"]  # the knob predates v2
        path = write_checkpoint(stale, tmp_path / "v1")
        reloaded = read_checkpoint(path)
        assert reloaded.version == 1
        golden = small_simulator().run(max_writes=BUDGET)
        resumed = small_simulator().run(max_writes=BUDGET, resume_from=path)
        assert resumed == golden
        assert reloaded.writes_issued == 500


#: A version-2 checkpoint (per-line metadata pickled as a list of
#: ``LineMetadata`` records), written by the code before the column
#: table existed: ``build_simulator("comp_wf", "milc", n_lines=8,
#: endurance_mean=12.0, seed=3).run(max_writes=600,
#: checkpoint_dir=..., checkpoint_interval=250)``, newest checkpoint
#: (500 writes), gzipped.
V2_FIXTURE = Path(__file__).parent / "fixtures" / (
    "checkpoint-v2-comp_wf-milc-8lines.pkl.gz"
)
V2_SETTINGS = dict(n_lines=8, endurance_mean=12.0, seed=3)


class TestVersion2Checkpoints:
    def _fixture(self, tmp_path):
        path = tmp_path / "checkpoint-000000000500.pkl"
        path.write_bytes(gzip.decompress(V2_FIXTURE.read_bytes()))
        return path

    def test_v2_fixture_loads_into_the_column_table(self, tmp_path):
        checkpoint = read_checkpoint(self._fixture(tmp_path))
        assert checkpoint.version == 2
        assert checkpoint.writes_issued == 500
        metadata = checkpoint.controller.engine.metadata
        assert isinstance(metadata, LineTable)
        assert any(record.compressed for record in metadata)

    def test_v2_fixture_resumes_bit_identically(self, tmp_path):
        path = self._fixture(tmp_path)
        golden = build_simulator("comp_wf", "milc", **V2_SETTINGS).run(
            max_writes=BUDGET
        )
        resumed = build_simulator("comp_wf", "milc", **V2_SETTINGS).run(
            max_writes=BUDGET, resume_from=path
        )
        assert golden.failed
        assert resumed == golden

    def test_v2_checkpoint_backend_comes_from_its_controller(self, tmp_path):
        checkpoint = read_checkpoint(self._fixture(tmp_path))
        assert checkpoint.controller.config.wl_backend == "startgap_freep"
        wolfram = build_simulator(
            "comp_wf", "milc", wl_backend="wolfram", **V2_SETTINGS
        )
        with pytest.raises(ValueError, match="different run"):
            wolfram.restore(checkpoint)


#: A WoLFRaM checkpoint written while the backend still had its own
#: stage subclasses, so it pickles ``WolframPlacementStage`` and
#: ``WolframRemapStage`` by name: ``build_simulator("comp_wf", "milc",
#: n_lines=8, endurance_mean=12.0, seed=3, wl_backend="wolfram")
#: .run(max_writes=600, checkpoint_dir=..., checkpoint_interval=250)``,
#: newest checkpoint (500 writes), gzipped.
RETIRED_STAGES_FIXTURE = Path(__file__).parent / "fixtures" / (
    "checkpoint-v3-comp_wf-wolfram-milc-8lines.pkl.gz"
)


class TestRetiredStageClasses:
    def test_checkpoint_naming_retired_stage_classes_resumes(self, tmp_path):
        raw = gzip.decompress(RETIRED_STAGES_FIXTURE.read_bytes())
        assert b"WolframPlacementStage" in raw and b"WolframRemapStage" in raw
        path = tmp_path / "checkpoint-000000000500.pkl"
        path.write_bytes(raw)
        stages = read_checkpoint(path).controller.pipeline.stages
        assert [type(stage).__name__ for stage in stages] == [
            "CompressStage", "PlacementStage", "EncodingStage",
            "ProgramStage", "CorrectionStage", "RemapStage",
        ]
        settings = dict(wl_backend="wolfram", **V2_SETTINGS)
        golden = build_simulator("comp_wf", "milc", **settings).run(
            max_writes=BUDGET
        )
        resumed = build_simulator("comp_wf", "milc", **settings).run(
            max_writes=BUDGET, resume_from=path
        )
        assert golden.failed
        assert resumed == golden


class TestBackendIdentity:
    def test_checkpoints_record_the_backend(self, tmp_path):
        simulator = build_simulator("comp_wf", "milc", wl_backend="wolfram", **SMALL)
        simulator.run(max_writes=600, checkpoint_dir=tmp_path,
                      checkpoint_interval=500)
        checkpoint = read_checkpoint(latest_checkpoint(tmp_path))
        assert checkpoint.controller.config.wl_backend == "wolfram"

    def test_restore_refuses_a_checkpoint_from_another_backend(self, tmp_path):
        """A WoLFRaM run and a Start-Gap run of one system are different
        experiments, though they share the system name."""
        wolfram = build_simulator("comp_wf", "milc", wl_backend="wolfram", **SMALL)
        wolfram.run(max_writes=600, checkpoint_dir=tmp_path,
                    checkpoint_interval=500)
        with pytest.raises(ValueError, match="wl_backend"):
            small_simulator().restore(latest_checkpoint(tmp_path))

    def test_same_backend_resumes(self, tmp_path):
        def wolfram():
            return build_simulator(
                "comp_wf", "milc", wl_backend="wolfram", **SMALL
            )

        golden = wolfram().run(max_writes=3_000)
        wolfram().run(max_writes=INTERRUPT_AT, checkpoint_dir=tmp_path,
                      checkpoint_interval=CHECKPOINT_EVERY)
        resumed = wolfram().run(
            max_writes=3_000, resume_from=latest_checkpoint(tmp_path)
        )
        assert resumed == golden


class TestTieredCheckpoints:
    def tiered_simulator(self, tier_lines=4):
        return build_simulator(
            "comp_wf", "milc", tier_lines=tier_lines, **SMALL
        )

    def test_tiered_run_resumes_bit_identically(self, tmp_path):
        """The DRAM tier's residents/refcounts/LRU order ride the
        pickled controller, so a resumed tiered run is bit-identical."""
        golden = self.tiered_simulator().run(max_writes=3_000)
        interrupted = self.tiered_simulator()
        interrupted.run(max_writes=INTERRUPT_AT, checkpoint_dir=tmp_path,
                        checkpoint_interval=CHECKPOINT_EVERY)
        resume_point = latest_checkpoint(tmp_path)
        checkpoint = read_checkpoint(resume_point)
        assert checkpoint.controller.config.tier_lines == 4
        assert len(checkpoint.controller.tier) >= 0  # tier state pickled
        resumed = self.tiered_simulator().run(
            max_writes=3_000, resume_from=resume_point
        )
        assert resumed == golden

    def test_restore_refuses_a_checkpoint_with_a_different_tier(
        self, tmp_path
    ):
        bare = small_simulator()
        bare.run(max_writes=600, checkpoint_dir=tmp_path,
                 checkpoint_interval=500)
        with pytest.raises(ValueError, match="different run"):
            self.tiered_simulator().restore(latest_checkpoint(tmp_path))


class TestCheckpointStore:
    def test_atomic_write_leaves_no_temporaries(self, tmp_path):
        simulator = small_simulator()
        simulator.run(max_writes=1_000, checkpoint_dir=tmp_path,
                      checkpoint_interval=300)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_prune_keeps_the_newest_checkpoints(self, tmp_path):
        simulator = small_simulator()
        simulator.run(max_writes=2_000, checkpoint_dir=tmp_path,
                      checkpoint_interval=300)
        kept = list_checkpoints(tmp_path)
        assert len(kept) == 2  # default keep=2
        assert kept[-1] == latest_checkpoint(tmp_path)
        assert kept[0].name < kept[-1].name

    def test_latest_checkpoint_of_missing_dir_is_none(self, tmp_path):
        assert latest_checkpoint(tmp_path / "never-created") is None

    def test_version_mismatch_rejected(self, tmp_path):
        simulator = small_simulator()
        simulator.run(max_writes=600, checkpoint_dir=tmp_path,
                      checkpoint_interval=500)
        checkpoint = read_checkpoint(latest_checkpoint(tmp_path))
        stale = Checkpoint(**{**checkpoint.__dict__, "version": 999})
        path = write_checkpoint(stale, tmp_path / "stale")
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "damage",
        {
            "empty": lambda payload: b"",
            "truncated": lambda payload: payload[: len(payload) // 2],
            "garbage": lambda payload: b"not a pickle at all" * 8,
        }.items(),
        ids=lambda item: item[0],
    )
    def test_corrupt_checkpoint_raises_value_error_naming_it(
        self, tmp_path, damage
    ):
        simulator = small_simulator()
        simulator.run(max_writes=600, checkpoint_dir=tmp_path,
                      checkpoint_interval=500)
        path = latest_checkpoint(tmp_path)
        _, corrupt = damage
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match="corrupt or truncated") as info:
            read_checkpoint(path)
        assert str(path) in str(info.value)
        with pytest.raises(ValueError, match="corrupt or truncated"):
            small_simulator().restore(path)

    def test_restore_rejects_a_foreign_checkpoint(self, tmp_path):
        simulator = small_simulator()
        simulator.run(max_writes=600, checkpoint_dir=tmp_path,
                      checkpoint_interval=500)
        other = build_simulator("baseline", "milc", **SMALL)
        with pytest.raises(ValueError, match="different run"):
            other.restore(latest_checkpoint(tmp_path))

    def test_checkpoint_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            small_simulator().run(
                max_writes=100, checkpoint_dir=tmp_path, checkpoint_interval=0
            )


class TestTelemetry:
    def test_observers_never_change_the_result(self, tmp_path):
        silent = small_simulator().run(max_writes=BUDGET)

        class Counting(RunObserver):
            events: list = []

            def on_heartbeat(self, event):
                self.events.append(event)

        observed = small_simulator().run(
            max_writes=BUDGET, observers=(Counting(),), heartbeat_interval=256
        )
        assert observed == silent
        assert Counting.events, "heartbeats should have fired"
        last = Counting.events[-1]
        assert last.writes_issued % 256 == 0
        assert 0.0 <= last.dead_fraction <= 1.0

    def test_resumed_stream_elapsed_seconds_is_monotone(
        self, tmp_path, monkeypatch
    ):
        """A resumed run's heartbeats continue the cumulative clock.

        ``elapsed_seconds`` used to restart at zero on every ``run()``
        call while ``writes_issued`` kept counting, so the JSONL stream
        of a resumed run was non-monotone in it and any whole-run rate
        derived from the stream was garbage.  The fake clock advances
        one second per reading, making the regression deterministic.
        """
        from repro.lifetime import simulator as simulator_module

        ticks = itertools.count(1)
        monkeypatch.setattr(
            simulator_module, "time",
            types.SimpleNamespace(monotonic=lambda: float(next(ticks))),
        )
        path = tmp_path / "events.jsonl"
        telemetry = dict(
            checkpoint_dir=tmp_path, checkpoint_interval=500,
            heartbeat_interval=500,
        )
        first = small_simulator()
        first.run(max_writes=1_500, observers=(JsonlObserver(path),),
                  **telemetry)
        resumed = small_simulator()
        resumed.run(max_writes=3_000, observers=(JsonlObserver(path),),
                    resume_from=latest_checkpoint(tmp_path), **telemetry)

        events = [json.loads(line) for line in path.read_text().splitlines()]
        starts = [e for e in events if e["event"] == "start"]
        assert [s["resumed"] for s in starts] == [False, True]
        heartbeats = [e for e in events if e["event"] == "heartbeat"]
        assert [e["writes_issued"] for e in heartbeats] == [
            500, 1_000, 1_500, 2_000, 2_500, 3_000
        ]
        elapsed = [e["elapsed_seconds"] for e in heartbeats]
        assert all(b > a for a, b in zip(elapsed, elapsed[1:])), elapsed
        # The rate anchor resets at the resume point, never at write 0:
        # every heartbeat covers exactly 500 writes over >= 1 fake
        # second, so a rate above 500 w/s means a mis-anchored window.
        for event in heartbeats:
            assert 0 < event["writes_per_second"] <= 500
        # The cumulative clock is carried by the checkpoints themselves.
        checkpoint = read_checkpoint(latest_checkpoint(tmp_path))
        assert checkpoint.elapsed_seconds > 0
        assert resumed.elapsed_seconds >= checkpoint.elapsed_seconds

    def test_jsonl_stream_is_well_formed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        result = small_simulator().run(
            max_writes=BUDGET,
            checkpoint_dir=tmp_path,
            checkpoint_interval=500,
            observers=(JsonlObserver(path),),
            heartbeat_interval=500,
        )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert "heartbeat" in kinds and "checkpoint" in kinds
        end = events[-1]
        assert end["writes_issued"] == result.writes_issued
        assert end["failed"] is result.failed
        heartbeat = next(e for e in events if e["event"] == "heartbeat")
        for key in ("writes_issued", "dead_fraction", "writes_per_second",
                    "stats"):
            assert key in heartbeat


class TestKnobsPickledBeforeTheyExisted:
    @pytest.mark.parametrize(
        ("fixture", "backend"),
        [(V2_FIXTURE, "startgap_freep"), (RETIRED_STAGES_FIXTURE, "wolfram")],
        ids=["v2", "v3"],
    )
    def test_fixture_reads_class_defaults_and_resumes(
        self, tmp_path, fixture, backend
    ):
        """The committed fixtures predate ``cell_type`` and ``n_banks``:
        their pickled configs lack both, the dataclass defaults answer
        plain attribute access, and the runs still resume.  They also
        pickle the bank's retired fault-mode enum, which loads and is
        dropped, and the record fields version 4 dropped, which stay
        unread."""
        raw = gzip.decompress(fixture.read_bytes())
        assert b"FaultMode" in raw
        path = tmp_path / "checkpoint-000000000500.pkl"
        path.write_bytes(raw)
        checkpoint = read_checkpoint(path)
        assert not hasattr(checkpoint.controller.memory, "fault_mode")
        config = checkpoint.controller.config
        assert "cell_type" not in vars(config)
        assert config.cell_type == "slc"
        assert "n_banks" not in vars(config)
        assert config.n_banks == 8
        assert config.wl_backend == backend
        settings = dict(wl_backend=backend, **V2_SETTINGS)
        golden = build_simulator("comp_wf", "milc", **settings).run(
            max_writes=BUDGET
        )
        resumed = build_simulator("comp_wf", "milc", **settings).run(
            max_writes=BUDGET, resume_from=path
        )
        assert resumed == golden


class TestCellIdentity:
    def test_restore_refuses_a_checkpoint_from_other_cells(self, tmp_path):
        """An SLC checkpoint is a different experiment from an MLC run
        of the same system."""
        small_simulator().run(max_writes=600, checkpoint_dir=tmp_path,
                              checkpoint_interval=500)
        mlc = build_simulator("comp_wf", "milc", cell_type="mlc", **SMALL)
        with pytest.raises(ValueError, match="cell_type"):
            mlc.restore(latest_checkpoint(tmp_path))

    def test_restore_refuses_a_checkpoint_from_other_banks(self, tmp_path):
        """A 4-bank run rotates its windows on other counters than the
        8-bank run of the same system."""
        build_simulator("comp_wf", "milc", n_banks=4, **SMALL).run(
            max_writes=600, checkpoint_dir=tmp_path, checkpoint_interval=500
        )
        with pytest.raises(ValueError, match="n_banks"):
            small_simulator().restore(latest_checkpoint(tmp_path))
