"""Multi-process PCM memory service: sharded banks behind one front door.

:class:`MemoryService` runs one worker process per shard, each hosting
a complete :class:`~repro.core.CompressedPCMController` over its slice
of the global address space.  The parent routes an incoming request
stream by :class:`~repro.engine.address_space.ShardMap`, translating
each global line to its shard's local line, fans per-shard batches out
over one-way pipes, and merges the workers' counters into one fleet
view.

Each shard has two ``multiprocessing.Pipe(duplex=False)`` connections:
the parent sends commands down one and receives replies up the other,
one reply per command.  The parent closes its copies of the worker's
ends, so a dead worker shows up at once: a send raises
``BrokenPipeError`` and a receive raises ``EOFError``.

Telemetry is written by the lifetime runner's JSONL emitter
(:class:`repro.lifetime.telemetry.JsonlObserver`): each worker appends
request-count driven ``shard_heartbeat`` events to
``shard-<i>/events.jsonl`` under the telemetry directory, and the
parent appends ``fleet_heartbeat`` events -- the exact merge of a
snapshot of every shard's counters -- to ``fleet.jsonl``.  Every
heartbeat and end event carries all counters under ``stats``
(:meth:`ControllerStats.to_dict`).

Fault tolerance reuses the sweep runner's quarantine discipline
(:func:`repro.engine.sweep.quarantine_run_dir`): when a shard worker
dies mid-run (crash or SIGTERM), its telemetry directory is quarantined
into ``attempt-<N>/``, a fresh worker is spawned from the same spec
(same seed, so the same endurance draws), and the shard's complete
routed request history is re-fed one batch at a time, each awaited
before the next is sent, so neither pipe ever fills.  Because every
component is deterministic, the recovered shard's state is
*bit-identical* to one that never died -- recovery is recomputation,
not approximation.  The retry budget bounds how many deaths per shard
are absorbed before :class:`ServiceError` is raised.

Workers call :func:`repro.core.window.clear_window_caches` on teardown
-- the same lifecycle hole PR 3 closed for sweep workers -- so shard
restarts within one service (and services within one long-lived
process) never accumulate stale placement caches.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from multiprocessing.connection import Connection, wait
from dataclasses import dataclass, field

from ..core.config import SystemConfig
from ..core.window import LINE_BYTES
from ..engine.address_space import ShardMap
from ..engine.context import ControllerStats
from ..engine.sweep import quarantine_run_dir
from ..lifetime.telemetry import JsonlObserver

#: Default requests between per-shard heartbeat events.
DEFAULT_SHARD_HEARTBEAT = 1_000

#: Seconds the parent waits on a reply before re-checking liveness.
_POLL_SECONDS = 0.25

#: Seconds without any reply before the parent declares a worker hung.
DEFAULT_WORKER_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """A shard kept failing after its retry budget was exhausted."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its shard (fully pickleable)."""

    index: int
    config: SystemConfig
    start: int
    stop: int
    endurance_mean: float
    endurance_cov: float
    seed: int
    telemetry_dir: str | None = None
    heartbeat_interval: int = DEFAULT_SHARD_HEARTBEAT


def shard_specs(shard_map: ShardMap, seed: int, **fields) -> list[ShardSpec]:
    """One :class:`ShardSpec` per shard of ``shard_map``.

    Each spec gets its shard's slice and derived seed
    (:meth:`~repro.engine.address_space.ShardMap.shard_seeds`); the
    remaining :class:`ShardSpec` fields come from ``fields``.  Both
    fleets -- :class:`MemoryService` and the in-process
    :class:`~repro.service.sharded.ShardedController` -- build their
    shards from these specs through :func:`_build_controller`.
    """
    return [
        ShardSpec(
            index=index, start=shard_range.start, stop=shard_range.stop,
            seed=shard_seed, **fields,
        )
        for index, (shard_range, shard_seed) in enumerate(
            zip(shard_map.ranges, shard_map.shard_seeds(seed))
        )
    ]


@dataclass(frozen=True)
class ServiceResult:
    """Final fleet view of one service run."""

    shards: int
    total_lines: int
    requests_routed: int
    recoveries: int
    dead_fraction: float
    stats: ControllerStats
    shard_stats: list[ControllerStats] = field(default_factory=list)
    shard_writes: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form (golden comparisons, CLI output)."""
        return {
            "shards": self.shards,
            "total_lines": self.total_lines,
            "requests_routed": self.requests_routed,
            "recoveries": self.recoveries,
            "dead_fraction": self.dead_fraction,
            "stats": self.stats.to_dict(),
            "shard_stats": [s.to_dict() for s in self.shard_stats],
            "shard_writes": list(self.shard_writes),
        }


def _build_controller(spec: ShardSpec):
    """Construct the shard's controller exactly as a respawn would."""
    import numpy as np

    from ..core.controller import CompressedPCMController
    from ..pcm import EnduranceModel
    from ..tier import with_tier

    # The tier is part of the spec, so a recovery respawn rebuilds it
    # too and the history replay reconstructs its residents -- exact
    # recovery holds for hybrid shards unchanged.
    return with_tier(CompressedPCMController(
        config=spec.config,
        n_lines=spec.stop - spec.start,
        endurance_model=EnduranceModel(
            mean=spec.endurance_mean, cov=spec.endurance_cov
        ),
        rng=np.random.default_rng(spec.seed),
    ))


def _exit_with_parent() -> None:
    """End this worker process once its parent process is gone.

    A forked worker inherits the parent's end of its own command pipe
    (and of earlier shards'), so a killed parent never shows up as end
    of file on ``requests``; the parent sentinel does.  A daemon thread
    waits on it, so the serve loop pays nothing per command.
    """
    parent = mp.parent_process()
    if parent is not None:  # None when called in-process
        def watch() -> None:
            wait([parent.sentinel])
            os._exit(1)

        threading.Thread(target=watch, daemon=True).start()


def shard_worker(
    spec: ShardSpec, requests: Connection, replies: Connection
) -> None:
    """Worker-process entry point: one shard's serve loop.

    ``requests`` is the receiving end of the command pipe and
    ``replies`` the sending end of the reply pipe.  The loop answers
    every command with one reply and returns on ``stop``, or exits
    with its parent process (:func:`_exit_with_parent`).
    """
    from ..core.window import clear_window_caches

    _exit_with_parent()
    writer = None
    if spec.telemetry_dir is not None:
        writer = JsonlObserver(
            os.path.join(
                spec.telemetry_dir, f"shard-{spec.index}", "events.jsonl"
            )
        )
    try:
        controller = _build_controller(spec)
        if writer is not None:
            writer.emit("shard_start", {
                "shard": spec.index,
                "range": [spec.start, spec.stop],
                "system": spec.config.name,
                "seed": spec.seed,
            })
        served = 0
        last_beat = 0
        while True:
            command = requests.recv()
            kind = command[0]
            if kind == "apply":
                batch = command[1]
                controller.write_batch(batch)
                served += len(batch)
                if writer is not None and (
                    served // spec.heartbeat_interval
                    > last_beat // spec.heartbeat_interval
                ):
                    writer.emit("shard_heartbeat", {
                        "shard": spec.index,
                        "requests_served": served,
                        "dead_fraction": controller.dead_fraction,
                        "stats": controller.stats.to_dict(),
                    })
                last_beat = served
                replies.send(("applied", spec.index, served))
            elif kind == "read":
                replies.send(("data", spec.index, controller.read(command[1])))
            elif kind == "snapshot":
                replies.send((
                    "snapshot", spec.index, controller.stats,
                    controller.engine.dead_count,
                    controller.engine.capacity_lines, served,
                ))
            elif kind == "stop":
                if writer is not None:
                    writer.emit("shard_end", {
                        "shard": spec.index,
                        "requests_served": served,
                        "dead_fraction": controller.dead_fraction,
                        "stats": controller.stats.to_dict(),
                    })
                replies.send(("stopped", spec.index, served))
                return
            else:  # pragma: no cover - protocol misuse guard
                raise ValueError(f"unknown service command {kind!r}")
    finally:
        # Worker teardown: the placement caches in repro.core.window are
        # module-global; clearing them here keeps forked workers (and
        # any in-process fallback runs) from leaking them across shard
        # restarts.
        clear_window_caches()
        if writer is not None:
            writer.close()


class MemoryService:
    """Sharded multi-process PCM memory fleet with exact-recovery retries.

    Args:
        config: The system configuration every shard runs.
        total_lines: Global logical address-space size.
        shards: Worker processes / address-space slices.
        endurance_mean / endurance_cov: Per-cell endurance model.
        seed: Base seed; per-shard seeds derive via
            :func:`repro.engine.address_space.shard_seeds` (one shard
            keeps it unchanged -- the golden-digest identity).
        telemetry_dir: When set, per-shard JSONL streams are written to
            ``shard-<i>/events.jsonl`` and the fleet view to
            ``fleet.jsonl`` under it.  None disables all telemetry.
        heartbeat_interval: Requests between shard heartbeat events.
        fleet_interval: Routed requests between fleet heartbeat events.
        retries: Worker deaths absorbed *per shard* before
            :class:`ServiceError`.
        worker_timeout: Seconds without any reply from a live worker
            before it is declared hung and restarted.
        tier_lines: Overrides ``config.tier_lines`` (per-shard DRAM
            tier, :mod:`repro.tier`) when not ``None``; 0 runs bare.
    """

    def __init__(
        self,
        config: SystemConfig,
        total_lines: int,
        shards: int = 1,
        endurance_mean: float = 100.0,
        endurance_cov: float = 0.15,
        seed: int = 0,
        telemetry_dir: str | None = None,
        heartbeat_interval: int = DEFAULT_SHARD_HEARTBEAT,
        fleet_interval: int = DEFAULT_SHARD_HEARTBEAT,
        retries: int = 2,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
        tier_lines: int | None = None,
    ) -> None:
        if heartbeat_interval < 1 or fleet_interval < 1:
            raise ValueError("heartbeat intervals must be >= 1")
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if tier_lines is not None:
            # The only knob with its own keyword, kept because
            # perfbench/workloads.py passes it; set it in the config.
            config = config.with_overrides(tier_lines=tier_lines)
        self.shard_map = ShardMap(total_lines, shards)
        self.total_lines = total_lines
        self.telemetry_dir = telemetry_dir
        self.fleet_interval = fleet_interval
        self.retries = retries
        self.worker_timeout = worker_timeout
        self.specs = shard_specs(
            self.shard_map, seed, config=config,
            endurance_mean=endurance_mean, endurance_cov=endurance_cov,
            telemetry_dir=telemetry_dir, heartbeat_interval=heartbeat_interval,
        )
        self._ctx = mp.get_context()
        self._workers: list[mp.Process | None] = [None] * shards
        #: Parent ends of each shard's pipes: commands out, replies in.
        self._requests: list[Connection | None] = [None] * shards
        self._replies: list[Connection | None] = [None] * shards
        #: Complete routed request history per shard -- the exact-recovery
        #: source: a respawned worker replays it to reconstruct, bit for
        #: bit, the state the dead worker held.
        self._history: list[list[list]] = [[] for _ in range(shards)]
        self._attempts = [0] * shards
        self._served = [0] * shards
        self.requests_routed = 0
        self.recoveries = 0
        self._last_fleet_beat = 0
        self._fleet_writer = (
            JsonlObserver(os.path.join(telemetry_dir, "fleet.jsonl"))
            if telemetry_dir is not None
            else None
        )
        self._started = False

    # -- lifecycle -------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self.specs)

    def __enter__(self) -> "MemoryService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> None:
        """Spawn one worker process per shard."""
        if self._started:
            raise RuntimeError("service already started")
        for index in range(self.shards):
            self._spawn(index)
        self._started = True
        if self._fleet_writer is not None:
            self._fleet_writer.emit("service_start", {
                "shards": self.shards,
                "total_lines": self.total_lines,
                "system": self.specs[0].config.name,
                "ranges": [
                    [r.start, r.stop] for r in self.shard_map.ranges
                ],
            })

    def _spawn(self, index: int) -> None:
        self._close_pipes(index)
        command_out, command_in = self._ctx.Pipe(duplex=False)
        reply_out, reply_in = self._ctx.Pipe(duplex=False)
        worker = self._ctx.Process(
            target=shard_worker,
            args=(self.specs[index], command_out, reply_in),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        worker.start()
        # Only the worker may hold its ends: then its death is an EOF
        # on the replies and a broken pipe on the commands.
        command_out.close()
        reply_in.close()
        self._workers[index] = worker
        self._requests[index] = command_in
        self._replies[index] = reply_out

    def _close_pipes(self, index: int) -> None:
        for pipes in (self._requests, self._replies):
            if pipes[index] is not None:
                pipes[index].close()
                pipes[index] = None

    def worker_pid(self, shard: int) -> int:
        """The shard worker's current OS pid (for external kill tests)."""
        worker = self._workers[shard]
        if worker is None or worker.pid is None:
            raise RuntimeError(f"shard {shard} has no running worker")
        return worker.pid

    def stop(self) -> ServiceResult | None:
        """Stop every worker; returns the final fleet result once."""
        if not self._started:
            return None
        result = self.result()
        for index in range(self.shards):
            try:
                self._send(index, ("stop",))
                self._await(index, "stopped", ("stop",))
            except ServiceError:
                pass  # already collecting the final state; best effort
            worker = self._workers[index]
            if worker is not None:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - hung worker
                    worker.terminate()
                self._workers[index] = None
            self._close_pipes(index)
        if self._fleet_writer is not None:
            self._fleet_writer.emit("service_end", {
                "requests_routed": self.requests_routed,
                "recoveries": self.recoveries,
                "dead_fraction": result.dead_fraction,
                "stats": result.stats.to_dict(),
            })
            self._fleet_writer.close()
        self._started = False
        return result

    # -- request path ----------------------------------------------------

    def submit(self, requests) -> None:
        """Route a batch of ``(line, data)`` requests to their shards.

        Each global line is translated to its shard's local line, and
        per-shard order follows stream order (all that matters for
        bit-identity across disjoint shards); the call returns once
        every involved worker has applied its sub-batch, so a
        subsequent :meth:`read` observes the writes.  A malformed
        request (a line outside the address space, a payload that is
        not one line long) raises before anything is routed.
        """
        self._require_started()
        buckets: list[list] = [[] for _ in range(self.shards)]
        to_local = self.shard_map.to_local
        for line, data in requests:
            # Checked here, not in the worker: a batch that kills its
            # worker would kill every respawn that replays the history.
            if len(data) != LINE_BYTES:
                raise ValueError(f"write data must be {LINE_BYTES} bytes")
            shard, local = to_local(line)
            buckets[shard].append((local, data))
        sent = [False] * self.shards
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            sent[index] = self._dispatch_apply(index, bucket)
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            # A batch already absorbed by a recovery replay must not be
            # awaited (it was never sent); resync its acknowledgement.
            reply = (
                self._await(index, "applied")
                if sent[index]
                else self._resync(index)
            )
            self._served[index] = reply[2]
            self.requests_routed += len(bucket)
        self._maybe_fleet_heartbeat()

    def _dispatch_apply(self, index: int, bucket: list) -> bool:
        """Record and send one shard batch; False when a recovery
        triggered at dispatch time already replayed it (the batch joins
        the history *before* the liveness check and the send precisely
        so the replay covers it exactly once)."""
        self._history[index].append(bucket)
        worker = self._workers[index]
        if worker is not None and worker.is_alive():
            try:
                self._requests[index].send(("apply", bucket))
                return True
            except OSError:  # the worker died after the liveness check
                pass
        self._recover(index)
        return False

    def read(self, line: int) -> bytes | None:
        """Read one global line from its owning shard."""
        self._require_started()
        shard, local = self.shard_map.to_local(line)
        command = ("read", local)
        self._send(shard, command)
        return self._await(shard, "data", command)[2]

    # -- fleet views -----------------------------------------------------

    def snapshot(self) -> list[tuple[ControllerStats, int, int, int]]:
        """Each shard's ``(stats, dead_blocks, capacity, served)`` now."""
        self._require_started()
        for index in range(self.shards):
            self._send(index, ("snapshot",))
        return [
            self._await(index, "snapshot", ("snapshot",))[2:]
            for index in range(self.shards)
        ]

    def stats(self) -> ControllerStats:
        """The exact fleet aggregate of every shard's counters."""
        return ControllerStats.merge_all(
            shard[0] for shard in self.snapshot()
        )

    def result(self) -> ServiceResult:
        """The complete fleet view (exact sums of shard views)."""
        shards = self.snapshot()
        merged = ControllerStats.merge_all(shard[0] for shard in shards)
        dead = sum(shard[1] for shard in shards)
        capacity = sum(shard[2] for shard in shards)
        return ServiceResult(
            shards=self.shards,
            total_lines=self.total_lines,
            requests_routed=self.requests_routed,
            recoveries=self.recoveries,
            dead_fraction=dead / capacity,
            stats=merged,
            shard_stats=[shard[0] for shard in shards],
            shard_writes=[shard[3] for shard in shards],
        )

    def _maybe_fleet_heartbeat(self) -> None:
        if self._fleet_writer is None:
            return
        if (
            self.requests_routed // self.fleet_interval
            == self._last_fleet_beat // self.fleet_interval
        ):
            self._last_fleet_beat = self.requests_routed
            return
        self._last_fleet_beat = self.requests_routed
        result = self.result()
        self._fleet_writer.emit("fleet_heartbeat", {
            "requests_routed": self.requests_routed,
            "recoveries": self.recoveries,
            "shard_requests": result.shard_writes,
            "dead_fraction": result.dead_fraction,
            "stats": result.stats.to_dict(),
        })

    # -- failure handling ------------------------------------------------

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("service not started (use start() or `with`)")

    def _send(self, index: int, command: tuple) -> None:
        """Send ``command``, to a fresh worker if the current one died."""
        self._ensure_alive(index)
        while True:
            try:
                self._requests[index].send(command)
                return
            except OSError:  # the worker died after the liveness check
                self._recover(index)

    def _await(
        self, index: int, expected: str, command: tuple | None = None
    ) -> tuple:
        """Wait for one reply, recovering the shard if its worker died.

        On worker death the in-flight command is *not* lost.  Recovery
        replays the shard's full history, which includes any pending
        ``apply`` (``command`` is None), so its acknowledgement is
        resynced; any other in-flight ``command`` (a read, snapshot or
        stop) is re-sent to the fresh worker.  Either way the returned
        reply reflects exactly the state a never-interrupted worker
        would have reached.
        """
        while True:
            reply = self._receive(index)
            if reply is not None:
                break
            self._recover(index)
            if command is None:
                return self._resync(index)
            self._send(index, command)
        if reply[0] != expected:  # pragma: no cover - protocol guard
            raise ServiceError(
                f"shard {index}: expected {expected!r} reply, got {reply[0]!r}"
            )
        return reply

    def _receive(self, index: int) -> tuple | None:
        """The worker's next reply, or None once it is dead or hung.

        A dead worker's reply pipe reads as end of file (``EOFError``,
        or ``OSError`` if the pipe broke); a live worker that sends
        nothing for ``worker_timeout`` seconds is terminated.
        """
        replies = self._replies[index]
        deadline = time.monotonic() + self.worker_timeout
        while True:
            try:
                if replies.poll(_POLL_SECONDS):
                    return replies.recv()
            except (EOFError, OSError):
                return None
            worker = self._workers[index]
            if worker is None or not worker.is_alive():
                return None
            if time.monotonic() > deadline:  # hung: no reply in time
                worker.terminate()
                worker.join(timeout=10)
                return None

    def _resync(self, index: int) -> tuple:
        """Post-recovery ``applied`` acknowledgement from a snapshot."""
        self._send(index, ("snapshot",))
        return (
            "applied", index,
            self._await(index, "snapshot", ("snapshot",))[-1],
        )

    def _ensure_alive(self, index: int) -> None:
        worker = self._workers[index]
        if worker is None or not worker.is_alive():
            self._recover(index)

    def _recover(self, index: int) -> None:
        """Quarantine, respawn, and replay a dead shard worker.

        A worker that dies during the replay is replaced in turn, each
        death counting against the shard's retry budget.
        """
        while True:
            self._attempts[index] += 1
            if self._attempts[index] > self.retries:
                raise ServiceError(
                    f"shard {index} worker died {self._attempts[index]} "
                    f"time(s); retry budget of {self.retries} exhausted"
                )
            worker = self._workers[index]
            exitcode = None
            if worker is not None:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - stuck on exit
                    worker.terminate()
                    worker.join(timeout=10)
                exitcode = worker.exitcode
            quarantine = None
            if self.telemetry_dir is not None:
                quarantine = quarantine_run_dir(
                    os.path.join(self.telemetry_dir, f"shard-{index}"),
                    self._attempts[index],
                )
            self._spawn(index)
            if self._replay(index):
                break
        self.recoveries += 1
        if self._fleet_writer is not None:
            self._fleet_writer.emit("shard_recovered", {
                "shard": index,
                "attempt": self._attempts[index],
                "exitcode": exitcode,
                "replayed_batches": len(self._history[index]),
                "requests_served": self._served[index],
                "quarantine": quarantine,
            })

    def _replay(self, index: int) -> bool:
        """Re-feed a fresh worker the shard's history; False if it died.

        One batch at a time: each ``apply`` is acknowledged before the
        next is sent, so a long history never fills either pipe (a
        worker blocked on a full reply pipe while the parent blocks on
        a full command pipe would deadlock both).
        """
        requests = self._requests[index]
        for batch in self._history[index]:
            try:
                requests.send(("apply", batch))
            except OSError:
                return False
            reply = self._receive(index)
            if reply is None:
                return False
            self._served[index] = reply[2]
        return True
