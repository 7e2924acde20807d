"""Run telemetry: heartbeat events from the simulator's write loop.

Long lifetime runs were previously silent until they returned; at
multi-million-write scale that means hours with no way to tell a
healthy run from a hung one.  The simulator now emits periodic
:class:`HeartbeatEvent`\\ s through a pluggable :class:`RunObserver`:

* :class:`JsonlObserver` appends one JSON object per event to a file
  (the machine-readable stream dashboards and the sweep manifest build
  on);
* :class:`ProgressObserver` prints one human-readable line per
  heartbeat (the CLI's ``--progress`` flag).

Observers are strictly passive: they see state *after* each write and
cannot perturb the simulation, so attaching or detaching them never
changes a run's result (heartbeat cadence is driven by the write
counter, wall-clock fields are informational only).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TextIO

from ..engine.context import ControllerStats

#: JSONL event-schema version (see docs/API.md, "Durability & telemetry").
#: Version 2: ``elapsed_seconds`` became cumulative across resume cuts
#: (version 1 restarted it at every ``run()`` call, so a resumed run's
#: stream was non-monotone in it).
#: Version 3: the heartbeat and end events of the lifetime and service
#: streams carry every counter under one ``stats`` object
#: (``ControllerStats.to_dict``) instead of hand-picked top-level
#: counters.
TELEMETRY_VERSION = 3


@dataclass(frozen=True)
class HeartbeatEvent:
    """One periodic progress sample of a running lifetime simulation."""

    system: str
    workload: str
    writes_issued: int
    max_writes: int
    dead_fraction: float
    #: A copy of the controller's counters at this write count.
    stats: ControllerStats
    #: Cumulative simulation wall-clock: the sum over *every* run
    #: segment since write 0, carried through checkpoints, so the field
    #: is strictly monotone along a stream even across resume cuts.
    elapsed_seconds: float
    writes_per_second: float  # mean rate since the previous heartbeat


class RunObserver:
    """Base observer: every hook is a no-op; subclass what you need."""

    def on_run_start(self, simulator, writes_issued: int) -> None:
        """The run loop is about to start (``writes_issued > 0`` means
        the run resumed from a checkpoint at that write count)."""

    def on_heartbeat(self, event: HeartbeatEvent) -> None:
        """A periodic progress sample (every ``heartbeat_interval`` writes)."""

    def on_checkpoint(self, path, writes_issued: int) -> None:
        """A checkpoint was durably written to ``path``."""

    def on_run_end(self, result) -> None:
        """The run finished; ``result`` is the final ``LifetimeResult``."""


class JsonlObserver(RunObserver):
    """Appends one JSON object per event to a ``.jsonl`` file.

    Events share a ``{"event": <type>, "version": ..., "time": <unix
    seconds>, ...}`` envelope; each line is flushed as written so a
    crashed run's stream is readable up to its last event.  The file is
    opened lazily (on the first event) and appended to, so a resumed
    run extends the stream of the interrupted one.  The memory service
    writes its shard and fleet streams through :meth:`emit` too.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: TextIO | None = None

    def emit(self, event: str, payload: dict) -> None:
        """Append one event with the standard envelope."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        record = {"event": event, "version": TELEMETRY_VERSION,
                  "time": time.time(), **payload}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def on_run_start(self, simulator, writes_issued: int) -> None:
        self.emit("start", {
            "system": simulator.config.name,
            "workload": simulator.workload_name,
            "n_lines": simulator.n_lines,
            "writes_issued": writes_issued,
            "resumed": writes_issued > 0,
        })

    def on_heartbeat(self, event: HeartbeatEvent) -> None:
        payload = {f.name: getattr(event, f.name) for f in fields(event)}
        payload["stats"] = event.stats.to_dict()
        self.emit("heartbeat", payload)

    def on_checkpoint(self, path, writes_issued: int) -> None:
        self.emit("checkpoint", {
            "path": str(path), "writes_issued": writes_issued,
        })

    def on_run_end(self, result) -> None:
        self.emit("end", {
            "system": result.system,
            "workload": result.workload,
            "writes_issued": result.writes_issued,
            "failed": result.failed,
            "dead_fraction": result.dead_fraction,
            "stats": result.stats.to_dict(),
        })
        self.close()

    def close(self) -> None:
        """Close the underlying file (reopened lazily if reused)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ProgressObserver(RunObserver):
    """Prints one human-readable line per heartbeat (CLI ``--progress``)."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def on_run_start(self, simulator, writes_issued: int) -> None:
        origin = f"resumed at {writes_issued:,}" if writes_issued else "fresh"
        print(
            f"[{simulator.workload_name}/{simulator.config.name}] "
            f"run started ({origin})",
            file=self.stream, flush=True,
        )

    def on_heartbeat(self, event: HeartbeatEvent) -> None:
        print(
            f"[{event.workload}/{event.system}] "
            f"{event.writes_issued:,}/{event.max_writes:,} writes  "
            f"dead={event.dead_fraction:.3f}  "
            f"cache={event.stats.compression_cache_hit_rate:.0%}  "
            f"{event.writes_per_second:,.0f} w/s",
            file=self.stream, flush=True,
        )

    def on_run_end(self, result) -> None:
        outcome = "failed (memory dead)" if result.failed else "budget exhausted"
        print(
            f"[{result.workload}/{result.system}] "
            f"done after {result.writes_issued:,} writes: {outcome}",
            file=self.stream, flush=True,
        )
