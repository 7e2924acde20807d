#!/usr/bin/env python
"""Interrupt/resume equivalence check for CI.

Proves the checkpoint machinery end-to-end at the *process* level, not
just in-process: a worker subprocess is SIGTERM-killed mid-run (no
graceful shutdown -- the whole point is surviving a crash), a second
worker resumes from the newest on-disk checkpoint, and the resumed
:class:`~repro.lifetime.LifetimeResult` must be bit-identical to an
uninterrupted golden run computed in this process.

Orchestrator (default)::

    python scripts/interrupt_resume_check.py [--work-dir DIR]

Worker (spawned by the orchestrator)::

    python scripts/interrupt_resume_check.py --worker \
        --checkpoint-dir DIR --result PATH [--resume]

Exit status 0 on bit-identical equivalence, 1 on any mismatch or
timeout.  The run parameters are tiny (the memory dies after a few
thousand writes) so the whole check takes seconds; CI adds a hard
``timeout-minutes`` on top.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lifetime import build_simulator, latest_checkpoint  # noqa: E402

# Small enough to die in a few thousand writes, large enough that the
# worker is still mid-run when the first checkpoint lands.
RUN = dict(system="comp_wf", workload="milc", n_lines=24,
           endurance_mean=12.0, seed=3)
BUDGET = 600_000
CHECKPOINT_EVERY = 500
#: Batched epochs exercise the out-of-order scheduler, so the
#: equivalence check also pins that its observability counters
#: (batch_waves / batch_wave_ops / batch_wave_width_max, all part of
#: the compared LifetimeResult) survive the kill and resume.  The
#: golden run must checkpoint at the same cadence: epochs are capped
#: at cadence boundaries, so the cadence shapes the wave structure.
BATCH = 8
#: SIGTERM once a checkpoint at >= this write count exists on disk.
KILL_AFTER_WRITES = 1_000
DEADLINE_SECONDS = 240.0


def run_worker(checkpoint_dir: Path, result_path: Path, resume: bool) -> int:
    resume_from = latest_checkpoint(checkpoint_dir) if resume else None
    if resume and resume_from is None:
        print("worker: --resume but no checkpoint found", file=sys.stderr)
        return 1
    simulator = build_simulator(**RUN)
    result = simulator.run(
        max_writes=BUDGET,
        batch=BATCH,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=CHECKPOINT_EVERY,
        resume_from=resume_from,
    )
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(payload)
    os.replace(tmp, result_path)
    return 0


def spawn_worker(checkpoint_dir: Path, result_path: Path,
                 resume: bool) -> subprocess.Popen:
    argv = [sys.executable, __file__, "--worker",
            "--checkpoint-dir", str(checkpoint_dir),
            "--result", str(result_path)]
    if resume:
        argv.append("--resume")
    return subprocess.Popen(argv)


def wait_for_checkpoint(checkpoint_dir: Path, child: subprocess.Popen,
                        deadline: float) -> Path:
    """Poll until a checkpoint at >= KILL_AFTER_WRITES writes exists."""
    while time.monotonic() < deadline:
        newest = latest_checkpoint(checkpoint_dir)
        if newest is not None:
            writes = int(newest.stem.split("-")[1])
            if writes >= KILL_AFTER_WRITES:
                return newest
        if child.poll() is not None:
            raise SystemExit(
                "worker exited before reaching the kill point "
                f"(status {child.returncode})"
            )
        time.sleep(0.02)
    raise SystemExit("timed out waiting for the worker's checkpoint")


def orchestrate(work_dir: Path) -> int:
    deadline = time.monotonic() + DEADLINE_SECONDS
    checkpoint_dir = work_dir / "checkpoints"
    result_path = work_dir / "result.json"

    print(f"golden: uninterrupted in-process run of {RUN} ...")
    golden = build_simulator(**RUN).run(
        max_writes=BUDGET,
        batch=BATCH,
        checkpoint_dir=work_dir / "golden-checkpoints",
        checkpoint_interval=CHECKPOINT_EVERY,
    )
    if not golden.failed:
        print("golden run never failed; check the run parameters",
              file=sys.stderr)
        return 1
    if golden.stats.batch_waves <= 0:
        print("golden run scheduled no waves; check BATCH", file=sys.stderr)
        return 1
    print(f"golden: failed after {golden.writes_issued} writes "
          f"({golden.stats.batch_waves} waves)")

    child = spawn_worker(checkpoint_dir, result_path, resume=False)
    try:
        newest = wait_for_checkpoint(checkpoint_dir, child, deadline)
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)  # crash, no cleanup
    child.wait(timeout=30)
    print(f"killed worker (pid {child.pid}) after checkpoint {newest.name}")
    if result_path.exists():
        print("worker finished before the kill; check KILL_AFTER_WRITES",
              file=sys.stderr)
        return 1

    resumed_child = spawn_worker(checkpoint_dir, result_path, resume=True)
    remaining = max(1.0, deadline - time.monotonic())
    status = resumed_child.wait(timeout=remaining)
    if status != 0:
        print(f"resumed worker failed with status {status}", file=sys.stderr)
        return 1

    resumed = json.loads(result_path.read_text())
    expected = json.loads(
        json.dumps(dataclasses.asdict(golden), sort_keys=True)
    )
    if resumed == expected:
        print(f"OK: resumed run is bit-identical "
              f"({resumed['writes_issued']} writes, "
              f"{resumed['stats']['total_flips']} flips)")
        return 0
    mismatched = sorted(
        key for key in expected
        if resumed.get(key) != expected[key]
    )
    print(f"MISMATCH in fields {mismatched}", file=sys.stderr)
    for key in mismatched:
        print(f"  {key}: golden={expected[key]!r} "
              f"resumed={resumed.get(key)!r}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", action="store_true")
    parser.add_argument("--checkpoint-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--work-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.worker:
        if not args.checkpoint_dir or not args.result:
            parser.error("--worker requires --checkpoint-dir and --result")
        return run_worker(args.checkpoint_dir, args.result, args.resume)

    if args.work_dir is not None:
        args.work_dir.mkdir(parents=True, exist_ok=True)
        return orchestrate(args.work_dir)
    with tempfile.TemporaryDirectory(prefix="interrupt-resume-") as tmp:
        return orchestrate(Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())
