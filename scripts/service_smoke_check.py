#!/usr/bin/env python
"""Memory-service smoke check for CI: kill a shard worker, recover exactly.

Boots the 4-shard multi-process :class:`~repro.service.MemoryService`,
drives a memcached-shaped workload through it, SIGTERM-kills one shard
worker mid-run (no graceful shutdown -- the point is surviving a
crash), and asserts that

* the service absorbs the death through its quarantine-and-replay
  recovery (exactly one recovery, telemetry moved to ``attempt-1/``),
* the final fleet view is *bit-identical* to an uninterrupted
  in-process golden run (:class:`~repro.service.ShardedController`
  on the same stream -- the documented equivalence chain), and
* the JSONL telemetry tells the story: ``service_start``,
  ``fleet_heartbeat``s, one ``shard_recovered``, ``service_end`` --
  whose ``stats`` equal the golden run's counters.

Usage::

    python scripts/service_smoke_check.py [--work-dir DIR]

Exit status 0 on exact recovery, 1 on any mismatch or timeout.  The
run is tiny (tens of lines, a few thousand requests) so the whole
check takes seconds; CI adds a hard ``timeout-minutes`` on top.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import comp_wf  # noqa: E402
from repro.service import (  # noqa: E402
    MemoryService,
    ShardedController,
    make_stream,
)

RUN = dict(endurance_mean=40.0, endurance_cov=0.2, seed=17, n_banks=4)
LINES = 64
SHARDS = 4
REQUESTS = 3_000
BATCH = 64
VICTIM = 1
#: Kill the victim once this many requests have been routed.
KILL_AFTER = REQUESTS // 2
KILL_TIMEOUT = 30.0


def golden_run(stream):
    fleet = ShardedController(comp_wf(), LINES, shards=SHARDS, **RUN)
    for start in range(0, len(stream), BATCH):
        fleet.write_batch(stream[start:start + BATCH])
    return fleet


def kill_worker(service: MemoryService, shard: int) -> None:
    pid = service.worker_pid(shard)
    os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + KILL_TIMEOUT
    while service._workers[shard].is_alive():
        if time.monotonic() > deadline:
            raise SystemExit(f"shard {shard} worker (pid {pid}) refused to die")
        time.sleep(0.01)
    print(f"killed shard {shard} worker (pid {pid}) after "
          f"{service.requests_routed} routed requests")


def check(work_dir: Path) -> int:
    stream = [
        (r.line, r.data)
        for r in make_stream("memcached", LINES, RUN["seed"]).iter_requests(REQUESTS)
    ]
    print(f"golden: in-process {SHARDS}-shard fleet over "
          f"{REQUESTS} memcached requests ...")
    golden = golden_run(stream)

    telemetry = work_dir / "telemetry"
    killed = False
    with MemoryService(
        comp_wf(), LINES, shards=SHARDS, telemetry_dir=str(telemetry),
        heartbeat_interval=250, fleet_interval=250, **RUN,
    ) as service:
        for start in range(0, len(stream), BATCH):
            if not killed and service.requests_routed >= KILL_AFTER:
                kill_worker(service, VICTIM)
                killed = True
            service.submit(stream[start:start + BATCH])
        result = service.stop()
    if not killed:
        print("never reached the kill point; check KILL_AFTER", file=sys.stderr)
        return 1

    failures = []
    if result.recoveries != 1:
        failures.append(f"expected exactly 1 recovery, saw {result.recoveries}")
    if result.requests_routed != REQUESTS:
        failures.append(
            f"routed {result.requests_routed} of {REQUESTS} requests"
        )
    if result.stats != golden.stats:
        failures.append(
            f"fleet stats diverged:\n  golden  {golden.stats}\n"
            f"  service {result.stats}"
        )
    if result.shard_stats != golden.shard_stats():
        diverged = [
            shard for shard, (ours, theirs) in enumerate(
                zip(result.shard_stats, golden.shard_stats())
            ) if ours != theirs
        ]
        failures.append(f"per-shard stats diverged for shards {diverged}")
    if result.dead_fraction != golden.dead_fraction:
        failures.append(
            f"dead fraction {result.dead_fraction} != {golden.dead_fraction}"
        )

    quarantine = telemetry / f"shard-{VICTIM}" / "attempt-1" / "events.jsonl"
    if not quarantine.exists():
        failures.append(f"missing quarantined telemetry at {quarantine}")
    fleet_events = [
        json.loads(line)
        for line in (telemetry / "fleet.jsonl").read_text().splitlines()
    ]
    kinds = [event["event"] for event in fleet_events]
    recovered = [e for e in fleet_events if e["event"] == "shard_recovered"]
    if kinds[0] != "service_start" or kinds[-1] != "service_end":
        failures.append(f"malformed fleet event stream: {kinds}")
    if "fleet_heartbeat" not in kinds:
        failures.append("no fleet_heartbeat events emitted")
    if len(recovered) != 1 or recovered[0]["shard"] != VICTIM:
        failures.append(f"bad shard_recovered events: {recovered}")
    if fleet_events[-1].get("stats") != golden.stats.to_dict():
        failures.append("service_end stats differ from the golden run's")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: exact recovery -- fleet stats identical after killing "
          f"shard {VICTIM} ({result.stats.stored_writes} stored writes, "
          f"{result.stats.lost_writes} lost, "
          f"dead fraction {result.dead_fraction:.4f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.work_dir is not None:
        args.work_dir.mkdir(parents=True, exist_ok=True)
        return check(args.work_dir)
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        return check(Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())
