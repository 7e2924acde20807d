#!/usr/bin/env python3
"""Memory-service demo: a sharded PCM fleet surviving a worker crash.

Walks the service mode end to end on a tiny fleet:

1. partition a global address space with a `ShardMap` and show that a
   sharded fleet is bit-identical to independent per-shard controllers;
2. boot the multi-process `MemoryService`, drive a memcached-shaped
   workload through it, and read the JSONL fleet telemetry back;
3. SIGTERM-kill a shard worker mid-run and watch quarantine-and-replay
   recovery reconstruct the exact state -- the final fleet view matches
   the in-process golden bit for bit.

Run:  python examples/service_demo.py [--shards 4] [--requests 2000]
"""

import argparse
import json
import os
import signal
import tempfile
import time
from pathlib import Path

from repro.core.config import comp_wf
from repro.engine import ShardMap
from repro.service import MemoryService, ShardedController, make_stream

LINES = 64
CONFIG = comp_wf(n_banks=4)
RUN = dict(endurance_mean=40.0, endurance_cov=0.2, seed=11)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--requests", type=int, default=2000)
    args = parser.parse_args()

    # -- 1. The shard map ------------------------------------------------
    shard_map = ShardMap(LINES, args.shards)
    print("1) shard map")
    print(f"   {LINES} lines -> {args.shards} contiguous slices: "
          + ", ".join(f"[{r.start},{r.stop})" for r in shard_map.ranges))
    stream = [
        (r.line, r.data)
        for r in make_stream("memcached", LINES, RUN["seed"])
        .iter_requests(args.requests)
    ]
    # Chunk the reference replay exactly like the service submissions
    # below: the batch scheduler's wave telemetry depends on segment
    # boundaries, and the recovery check compares every stats field.
    fleet = ShardedController(CONFIG, LINES, shards=args.shards, **RUN)
    for start in range(0, len(stream), 64):
        fleet.write_batch(stream[start:start + 64])
    solos = [
        ShardedController(
            CONFIG, shard_map.lines_of(shard), shards=1,
            endurance_mean=RUN["endurance_mean"],
            endurance_cov=RUN["endurance_cov"], seed=seed,
        )
        for shard, seed in enumerate(shard_map.shard_seeds(RUN["seed"]))
    ]
    for start in range(0, len(stream), 64):
        for shard, bucket in enumerate(
            shard_map.partition(stream[start:start + 64])
        ):
            if bucket:
                solos[shard].write_batch(bucket)
    solo_stats = [solo.stats for solo in solos]
    assert solo_stats == fleet.shard_stats(), "sharding must be pure routing"
    print(f"   fleet == {args.shards} independent controllers: "
          f"{fleet.stats.stored_writes} stored, "
          f"{fleet.stats.lost_writes} lost, "
          f"dead fraction {fleet.dead_fraction:.4f}")

    # -- 2 & 3. The service, plus a mid-run worker kill -------------------
    print("2) multi-process service with a mid-run SIGTERM")
    victim = args.shards - 1
    with tempfile.TemporaryDirectory(prefix="service-demo-") as tmp:
        telemetry = Path(tmp)
        with MemoryService(
            CONFIG, LINES, shards=args.shards,
            telemetry_dir=str(telemetry),
            heartbeat_interval=max(1, args.requests // 8),
            fleet_interval=max(1, args.requests // 8), **RUN,
        ) as service:
            half = len(stream) // 2
            killed = False
            for start in range(0, len(stream), 64):
                if not killed and start >= half:
                    pid = service.worker_pid(victim)
                    os.kill(pid, signal.SIGTERM)
                    while service._workers[victim].is_alive():
                        time.sleep(0.01)
                    killed = True
                    print(f"   killed shard {victim} worker (pid {pid}) "
                          f"after {service.requests_routed} routed requests")
                service.submit(stream[start:start + 64])
            result = service.stop()

        assert result.recoveries == 1
        assert result.stats == fleet.stats, "recovery must be exact"
        print(f"   recovered exactly: fleet stats identical after replaying "
              f"the shard's history ({result.recoveries} recovery)")

        print("3) telemetry")
        events = [
            json.loads(line)
            for line in (telemetry / "fleet.jsonl").read_text().splitlines()
        ]
        for event in events:
            if event["event"] == "shard_recovered":
                print(f"   shard_recovered: shard={event['shard']} "
                      f"attempt={event['attempt']} "
                      f"replayed_batches={event['replayed_batches']}")
        quarantined = telemetry / f"shard-{victim}" / "attempt-1"
        print(f"   dead worker's stream quarantined under "
              f"{quarantined.relative_to(telemetry)}/")
        beats = [e for e in events if e["event"] == "fleet_heartbeat"]
        print(f"   {len(beats)} fleet heartbeats; final: "
              f"{beats[-1]['requests_routed']} routed, "
              f"dead fraction {beats[-1]['dead_fraction']:.4f}")


if __name__ == "__main__":
    main()
