"""Trace-driven PCM lifetime simulation (Section IV, "Fault model").

The simulator replays a write-back stream -- either a synthetic
workload generator or a recorded trace, cycled -- through a
:class:`repro.core.CompressedPCMController` until 50 % of the memory
capacity is dead (the paper's system-failure criterion, following
ECP [8]), and reports the write count at death plus the wear statistics
behind Figures 10, 12 and 13.

Long runs are *survivable*: :meth:`LifetimeSimulator.run` can
periodically write crash-safe checkpoints (see
:mod:`repro.lifetime.checkpoint`), resume bit-identically from one via
``resume_from=``, and stream heartbeat telemetry through pluggable
:class:`~repro.lifetime.telemetry.RunObserver`\\ s.  The write stream is
tracked by an explicit cursor (not a live generator) precisely so the
whole replay position serializes with the rest of the state.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..core import CompressedPCMController, SystemConfig
from ..pcm import EnduranceModel
from ..tier import with_tier
from ..traces import SyntheticWorkload, Trace, WriteBack, WorkloadProfile
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .results import LifetimeResult
from .telemetry import HeartbeatEvent, RunObserver

#: The paper's failure criterion: half the capacity worn out.
DEAD_CAPACITY_THRESHOLD = 0.5

#: Default writes between durable checkpoints (when checkpointing is on).
DEFAULT_CHECKPOINT_INTERVAL = 100_000

#: Default writes between heartbeat events (when observers are attached).
DEFAULT_HEARTBEAT_INTERVAL = 10_000


class LifetimeSimulator:
    """Replays one workload through one system until memory death."""

    def __init__(
        self,
        config: SystemConfig,
        source: SyntheticWorkload | Trace,
        n_lines: int,
        endurance_mean: float = 100.0,
        endurance_cov: float = 0.15,
        seed: int = 0,
    ) -> None:
        if not isinstance(source, Trace) and not hasattr(source, "next_write"):
            raise TypeError(
                "workload source must be a Trace or provide next_write() "
                f"(SyntheticWorkload, MixedWorkload); got {type(source).__name__}"
            )
        self.config = config
        self.source = source
        self.n_lines = n_lines
        self.endurance_mean = endurance_mean
        if isinstance(source, SyntheticWorkload):
            self.workload_name = source.profile.name
        elif isinstance(source, Trace):
            self.workload_name = source.workload
        else:
            self.workload_name = getattr(source, "name", type(source).__name__)
        model = EnduranceModel(mean=endurance_mean, cov=endurance_cov)
        # Hybrid extension: a content-aware DRAM front tier absorbs hot
        # incompressible lines; the PCM controller only sees the
        # post-tier write stream.
        self.controller = with_tier(CompressedPCMController(
            config=config,
            n_lines=n_lines,
            endurance_model=model,
            rng=np.random.default_rng(seed),
        ))
        #: Writes issued so far (advanced by run(); restored on resume).
        self.writes_issued = 0
        #: Replay position within a Trace source (unused for generators).
        self.trace_cursor = 0
        #: Cumulative wall-clock seconds spent in run() across every
        #: segment of this experiment (carried through checkpoints, so
        #: resumed telemetry stays monotone in elapsed_seconds).
        self.elapsed_seconds = 0.0

    # -- write stream ----------------------------------------------------

    def _validate_source(self) -> None:
        """Reject unusable sources before the first write (run start)."""
        source = self.source
        if isinstance(source, Trace):
            if len(source) == 0:
                raise ValueError("cannot replay an empty trace")
            if source.n_lines > self.n_lines:
                raise ValueError(
                    f"trace addresses {source.n_lines} lines but the memory "
                    f"has only {self.n_lines}"
                )

    def _next_write(self) -> WriteBack:
        """The next write-back: generator draw or cursor-tracked replay.

        Traces cycle endlessly exactly like the old
        ``itertools.cycle`` stream did, but through an explicit cursor
        so the replay position survives checkpoint/resume.
        """
        source = self.source
        if isinstance(source, Trace):
            write_back = source[self.trace_cursor]
            self.trace_cursor = (self.trace_cursor + 1) % len(source)
            return write_back
        return source.next_write()

    # -- checkpoint / resume ---------------------------------------------

    def save_checkpoint(self, directory: str | Path, keep: int = 2) -> Path:
        """Durably checkpoint the complete replay state; returns the path."""
        checkpoint = Checkpoint(
            version=CHECKPOINT_VERSION,
            writes_issued=self.writes_issued,
            system=self.config.name,
            workload=self.workload_name,
            n_lines=self.n_lines,
            controller=self.controller,
            source=self.source,
            trace_cursor=self.trace_cursor,
            elapsed_seconds=self.elapsed_seconds,
        )
        return write_checkpoint(checkpoint, directory, keep=keep)

    def restore(self, checkpoint: Checkpoint | str | Path) -> None:
        """Adopt a checkpoint's state; the next ``run`` continues from it.

        The checkpoint must come from the same experiment (system,
        workload, memory size, tier capacity, wear-leveling backend,
        cell type, bank count) -- a mismatch raises ``ValueError``
        before any state is replaced.  The knobs come from
        the pickled controller's config; knobs a checkpoint predates read
        as their dataclass defaults.
        """
        if not isinstance(checkpoint, Checkpoint):
            checkpoint = read_checkpoint(checkpoint)
        config = self.config
        pickled = checkpoint.controller.config
        expected = (
            config.name, self.workload_name, self.n_lines,
            config.tier_lines, config.wl_backend, config.cell_type,
            config.n_banks,
        )
        found = (
            checkpoint.system, checkpoint.workload, checkpoint.n_lines,
            pickled.tier_lines, pickled.wl_backend, pickled.cell_type,
            pickled.n_banks,
        )
        if expected != found:
            raise ValueError(
                "checkpoint belongs to a different run: expected "
                "(system, workload, n_lines, tier_lines, wl_backend, "
                f"cell_type, n_banks)={expected}, checkpoint has {found}"
            )
        self.controller = checkpoint.controller
        self.source = checkpoint.source
        self.trace_cursor = checkpoint.trace_cursor
        self.writes_issued = checkpoint.writes_issued
        self.elapsed_seconds = checkpoint.elapsed_seconds

    # -- the run loop ----------------------------------------------------

    def _step_epoch(
        self,
        batch: int,
        writes: int,
        max_writes: int,
        check_interval: int,
        checkpoint_interval: int,
        heartbeat_interval: int,
    ) -> int:
        """Issue one batched epoch; returns the number of writes drained.

        The epoch size starts at ``batch`` and is capped at the
        distance to the next multiple of every active cadence (failure
        check, checkpoint, heartbeat -- pass 0 for inactive ones) and
        to the write budget, so cadence events land at exactly the same
        write counts as a serial run.
        """
        size = min(batch, max_writes - writes)
        for interval in (check_interval, checkpoint_interval, heartbeat_interval):
            if interval:
                remaining = interval - writes % interval
                if remaining < size:
                    size = remaining
        source = self.source
        if isinstance(source, Trace):
            # Bulk cursor drain: same cycled stream _next_write yields,
            # without the per-write call and cursor store.
            writes_seq = source.writes
            n = len(writes_seq)
            cursor = self.trace_cursor
            requests = [
                (write_back.line, write_back.data)
                for write_back in (
                    writes_seq[(cursor + offset) % n] for offset in range(size)
                )
            ]
            self.trace_cursor = (cursor + size) % n
        else:
            requests = []
            for _ in range(size):
                write_back = self._next_write()
                requests.append((write_back.line, write_back.data))
        self.controller.write_batch(requests)
        return size

    def run(
        self,
        max_writes: int = 2_000_000,
        check_interval: int = 64,
        *,
        batch: int = 1,
        checkpoint_dir: str | Path | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        resume_from: Checkpoint | str | Path | None = None,
        observers: Sequence[RunObserver] = (),
        heartbeat_interval: int = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> LifetimeResult:
        """Replay writes until memory death or the write budget runs out.

        Args:
            max_writes: Safety bound; a run that has not failed by then
                returns ``failed=False`` (callers should raise the
                budget or shrink the memory rather than compare
                unfinished runs).
            check_interval: Writes between failure-criterion checks.
            batch: Write-backs issued per controller call.  ``batch > 1``
                drains the write stream in epochs through the batched
                line-parallel engine
                (:meth:`~repro.core.CompressedPCMController.write_batch`,
                which serializes same-line collisions internally); each
                epoch is capped at the distance to the next failure
                check, checkpoint, and heartbeat, so every cadence fires
                at exactly the write counts a ``batch=1`` run would use
                and the result is bit-identical to ``batch=1``.
            checkpoint_dir: When set, a durable checkpoint is written
                there every ``checkpoint_interval`` writes (atomic
                write-rename; see :mod:`repro.lifetime.checkpoint`).
            checkpoint_interval: Writes between checkpoints.
            resume_from: A checkpoint (object or path) to restore
                before the first write; the continuation is
                bit-identical to a never-interrupted run.  The counters
                resume at the checkpoint's write count, so checkpoint,
                heartbeat, and failure-check cadences stay aligned.
            observers: Passive telemetry sinks (see
                :mod:`repro.lifetime.telemetry`); they never affect the
                simulation.
            heartbeat_interval: Writes between heartbeat events (only
                consulted when observers are attached).
        """
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if heartbeat_interval < 1:
            raise ValueError("heartbeat_interval must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if resume_from is not None:
            self.restore(resume_from)
        self._validate_source()

        controller = self.controller
        checkpointing = checkpoint_dir is not None
        writes = self.writes_issued
        failed = False
        started = time.monotonic()
        elapsed_base = self.elapsed_seconds
        rate_anchor_writes, rate_anchor_time = writes, started
        for observer in observers:
            observer.on_run_start(self, writes)

        while writes < max_writes:
            if batch == 1:
                write_back = self._next_write()
                controller.write(write_back.line, write_back.data)
                writes += 1
            else:
                writes += self._step_epoch(
                    batch, writes, max_writes, check_interval,
                    checkpoint_interval if checkpointing else 0,
                    heartbeat_interval if observers else 0,
                )
            self.writes_issued = writes
            if writes % check_interval == 0 and (
                controller.dead_fraction >= DEAD_CAPACITY_THRESHOLD
            ):
                failed = True
                break
            if checkpointing and writes % checkpoint_interval == 0:
                self.elapsed_seconds = elapsed_base + (
                    time.monotonic() - started
                )
                path = self.save_checkpoint(checkpoint_dir)
                for observer in observers:
                    observer.on_checkpoint(path, writes)
            if observers and writes % heartbeat_interval == 0:
                now = time.monotonic()
                elapsed = now - rate_anchor_time
                self.elapsed_seconds = elapsed_base + (now - started)
                event = HeartbeatEvent(
                    system=self.config.name,
                    workload=self.workload_name,
                    writes_issued=writes,
                    max_writes=max_writes,
                    dead_fraction=controller.dead_fraction,
                    stats=controller.stats.copy(),
                    elapsed_seconds=self.elapsed_seconds,
                    writes_per_second=(
                        (writes - rate_anchor_writes) / elapsed
                        if elapsed > 0 else 0.0
                    ),
                )
                rate_anchor_writes, rate_anchor_time = writes, now
                for observer in observers:
                    observer.on_heartbeat(event)

        self.elapsed_seconds = elapsed_base + (time.monotonic() - started)
        engine = controller.engine
        fault_counts = controller.death_fault_counts
        result = LifetimeResult(
            system=self.config.name,
            workload=self.workload_name,
            n_lines=self.n_lines,
            endurance_mean=self.endurance_mean,
            writes_issued=writes,
            failed=failed,
            capacity_lines=engine.capacity_lines,
            dead_blocks=engine.dead_count,
            death_fault_total=sum(fault_counts.values()),
            death_fault_blocks=len(fault_counts),
            stats=controller.stats.copy(),
        )
        for observer in observers:
            observer.on_run_end(result)
        return result
