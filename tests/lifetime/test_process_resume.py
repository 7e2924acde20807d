"""Process-level interrupt/resume: a SIGTERM-killed run resumes exactly.

The in-process checkpoint tests (``test_checkpoint.py``) interrupt a run
by returning from it.  Here a worker process is SIGTERM-killed mid-run
-- no graceful shutdown, the point is surviving a crash -- a second
worker resumes from the newest on-disk checkpoint, and its
:class:`~repro.lifetime.LifetimeResult` must be bit-identical to an
uninterrupted golden run computed in this process.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import os
import time

from repro.lifetime import build_simulator, latest_checkpoint

# Small enough to die in a few thousand writes, large enough that the
# worker is still mid-run when the first checkpoint lands.
RUN = dict(system="comp_wf", workload="milc", n_lines=24,
           endurance_mean=12.0, seed=3)
BUDGET = 600_000
CHECKPOINT_EVERY = 500
#: Batched epochs exercise the out-of-order scheduler, so the check
#: also pins that its wave counters survive the kill and resume.  The
#: golden run checkpoints at the same cadence: epochs are capped at
#: cadence boundaries, so the cadence shapes the wave structure.
BATCH = 8
#: SIGTERM once a checkpoint at >= this write count exists on disk.
KILL_AFTER_WRITES = 1_000
DEADLINE_SECONDS = 240.0


def _run(checkpoint_dir, resume_from=None):
    return build_simulator(**RUN).run(
        max_writes=BUDGET,
        batch=BATCH,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=CHECKPOINT_EVERY,
        resume_from=resume_from,
    )


def _as_json(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def _worker(checkpoint_dir, result_path, resume: bool) -> None:
    """Worker-process entry point: run, or resume, and save the result."""
    resume_from = latest_checkpoint(checkpoint_dir) if resume else None
    if resume and resume_from is None:
        raise SystemExit("resume requested but no checkpoint found")
    result = _run(checkpoint_dir, resume_from)
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(_as_json(result))
    os.replace(tmp, result_path)


def _checkpointed_writes(checkpoint_dir) -> int:
    newest = latest_checkpoint(checkpoint_dir)
    return -1 if newest is None else int(newest.stem.split("-")[1])


def test_sigterm_killed_run_resumes_bit_identically(tmp_path):
    deadline = time.monotonic() + DEADLINE_SECONDS
    golden = _run(tmp_path / "golden-checkpoints")
    assert golden.failed, "golden run never failed; check RUN"
    assert golden.stats.batch_waves > 0, "golden run scheduled no waves"

    ctx = mp.get_context("spawn")
    checkpoints = tmp_path / "checkpoints"
    result_path = tmp_path / "result.json"
    worker = ctx.Process(target=_worker, args=(checkpoints, result_path, False))
    worker.start()
    try:
        while _checkpointed_writes(checkpoints) < KILL_AFTER_WRITES:
            assert worker.is_alive(), (
                f"worker exited before the kill point "
                f"(status {worker.exitcode})"
            )
            assert time.monotonic() < deadline, "no checkpoint in time"
            time.sleep(0.02)
    finally:
        worker.terminate()  # SIGTERM: a crash, no cleanup
        worker.join(timeout=30)
    assert not result_path.exists(), (
        "worker finished before the kill; check KILL_AFTER_WRITES"
    )

    resumed = ctx.Process(target=_worker, args=(checkpoints, result_path, True))
    resumed.start()
    resumed.join(timeout=max(1.0, deadline - time.monotonic()))
    if resumed.is_alive():  # pragma: no cover - hung worker
        resumed.terminate()
        resumed.join(timeout=30)
        raise AssertionError("resumed worker missed the deadline")
    assert resumed.exitcode == 0
    assert json.loads(result_path.read_text()) == json.loads(_as_json(golden))
