"""Crash-safe checkpointing for long lifetime runs.

A Figure 10/13 study at serious scale is hours of multi-million-write
Monte-Carlo simulation per (workload, system) pair; an OOM kill or a
SIGTERM from a batch scheduler must not discard that progress.  This
module owns the on-disk format: a :class:`Checkpoint` record pickles
the *complete* replay state of one run -- the controller (bank arrays,
metadata, correction/wear-leveling components, stats, shadow store, and
every ``numpy.random.Generator`` those objects hold), the workload
source (its generator state, per-block content model, and address
buffer), and the trace cursor -- so a resumed run continues the exact
write stream and produces a bit-identical
:class:`~repro.lifetime.results.LifetimeResult`
(pinned by ``tests/lifetime/test_checkpoint.py``).

Durability protocol: checkpoints are written to a temporary file in the
target directory, flushed + fsynced, then atomically renamed into place
with :func:`os.replace`.  A crash mid-write therefore leaves either the
previous checkpoint set or the new one -- never a torn file.  Older
checkpoints are pruned only *after* the new one is durable, so the
directory always holds at least one complete checkpoint once the first
write-rename finishes.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

#: Bump when the pickled payload layout changes incompatibly.  Version
#: history: 1 = original layout; 2 = adds ``tier_lines`` (the hybrid
#: DRAM front tier's capacity -- the tier state itself rides inside the
#: pickled controller) and pins that the controller pickle carries the
#: complete ``ControllerStats``, scheduler telemetry included, so
#: observability counters survive a resume instead of silently
#: resetting; 3 = the line metadata is one column table
#: (:class:`~repro.core.metadata.LineTable`) instead of a list of
#: per-line records, and ``wl_backend`` joins the run identity; 4 =
#: the record drops its ``dead_threshold``, ``tier_lines`` and
#: ``wl_backend`` fields and the engine state its ``n_banks``: the run
#: identity comes from the pickled config alone, which a version-3
#: reader cannot restore from.
CHECKPOINT_VERSION = 4

#: Versions :func:`read_checkpoint` accepts.  Knobs an older pickled
#: config predates read back as the dataclass defaults, so old
#: snapshots resume as tier-less, 8-bank runs; the record fields
#: version 4 dropped stay in their ``__dict__`` unread.  Versions 1-2
#: pickled the metadata as a record list, which the engine state turns
#: into the column table as it unpickles.
SUPPORTED_VERSIONS = frozenset({1, 2, 3, 4})

#: Classes older checkpoints pickled that were since folded into
#: another, mapped to their replacement.  The WoLFRaM stage subclasses
#: differed from their bases only in ``describe()``, which now keys on
#: ``config.wl_backend``.  The fault-mode enum (every run used its
#: stuck-at-last member, now the only fault model) unpickles as its
#: value string, and :func:`read_checkpoint` drops the attribute.
_RETIRED_CLASSES = {
    ("repro.engine.stages", "WolframPlacementStage"):
        ("repro.engine.stages", "PlacementStage"),
    ("repro.engine.stages", "WolframRemapStage"):
        ("repro.engine.stages", "RemapStage"),
    ("repro.pcm.cell", "FaultMode"): ("builtins", "str"),
}

#: ``checkpoint-<writes, zero-padded>.pkl`` -- zero-padding keeps
#: lexicographic and numeric order identical.
_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d{12})\.pkl$")


@dataclass
class Checkpoint:
    """Complete resumable state of one lifetime run at a write count.

    ``controller`` and ``source`` are the live objects (pickled whole);
    the scalar fields and the controller's config exist so
    :meth:`LifetimeSimulator.restore
    <repro.lifetime.simulator.LifetimeSimulator.restore>` can refuse a
    checkpoint taken from a different experiment before touching any
    state.
    """

    version: int
    writes_issued: int
    system: str
    workload: str
    n_lines: int
    controller: object
    source: object
    trace_cursor: int = 0
    #: Cumulative wall-clock seconds spent simulating across every
    #: run segment up to this checkpoint, so resumed runs report
    #: monotone ``elapsed_seconds`` telemetry.  Defaulted, so
    #: checkpoints pickled before the field existed read the class
    #: default and report 0.0.
    elapsed_seconds: float = 0.0


def checkpoint_path(directory: str | Path, writes_issued: int) -> Path:
    """The canonical checkpoint filename for a write count."""
    return Path(directory) / f"checkpoint-{writes_issued:012d}.pkl"


def write_checkpoint(
    checkpoint: Checkpoint, directory: str | Path, keep: int = 2
) -> Path:
    """Durably write a checkpoint; returns the final path.

    The payload lands under a temporary name first and is renamed into
    place only after an fsync, so readers (and a resume after a crash
    here) never observe a partial file.  After the rename, all but the
    ``keep`` newest checkpoints in the directory are pruned.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = checkpoint_path(directory, checkpoint.writes_issued)
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=".tmp-checkpoint-", suffix=".pkl"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, final)
    except BaseException:
        # Never leave a torn temporary behind on any failure, including
        # KeyboardInterrupt/SIGTERM landing between write and rename.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _prune(directory, keep)
    return final


class _CheckpointUnpickler(pickle.Unpickler):
    """Unpickler that resolves :data:`_RETIRED_CLASSES`."""

    def find_class(self, module: str, name: str):
        return super().find_class(*_RETIRED_CLASSES.get((module, name), (module, name)))


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Load one checkpoint file, validating the format version.

    A file that does not unpickle (empty, truncated, or garbage) raises
    ``ValueError`` naming the path, like a wrong version does.
    """
    with open(path, "rb") as handle:
        try:
            checkpoint = _CheckpointUnpickler(handle).load()
        except Exception as error:
            raise ValueError(
                f"checkpoint {path} is corrupt or truncated: {error}"
            ) from error
    if not isinstance(checkpoint, Checkpoint):
        raise ValueError(f"{path} is not a lifetime checkpoint")
    if checkpoint.version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"checkpoint {path} has format version {checkpoint.version}; "
            f"this build reads versions {sorted(SUPPORTED_VERSIONS)}"
        )
    vars(checkpoint.controller.memory).pop("fault_mode", None)
    return checkpoint


def list_checkpoints(directory: str | Path) -> list[Path]:
    """All checkpoint files in a directory, oldest (fewest writes) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        path for path in directory.iterdir() if _CHECKPOINT_NAME.match(path.name)
    ]
    return sorted(found, key=lambda path: path.name)


def latest_checkpoint(directory: str | Path) -> Path | None:
    """The newest (highest write count) checkpoint, or None if empty."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def _prune(directory: Path, keep: int) -> None:
    """Drop all but the ``keep`` newest checkpoints (best-effort)."""
    for stale in list_checkpoints(directory)[:-keep]:
        try:
            stale.unlink()
        except OSError:
            pass  # a concurrent prune or an unwritable dir is not fatal
