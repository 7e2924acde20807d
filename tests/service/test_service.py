"""The multi-process memory service: equivalence, telemetry, recovery.

Everything here compares the :class:`MemoryService` (one worker process
per shard) against the in-process :class:`ShardedController`, which the
sharded-fleet tests in turn pin to the monolithic golden digests -- so
these tests close the bit-identity chain:

    MemoryService == ShardedController == K independent controllers
                  == monolithic controller (at shards=1).

Worker-kill recovery is asserted to be *exact*: SIGTERM a shard worker
mid-run, and the final fleet view must equal the never-killed run field
for field, with the dead worker's telemetry quarantined sweep-style.
"""

import dataclasses
import json
import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.config import comp_wf
from repro.core.controller import CompressedPCMController
from repro.engine.context import ControllerStats
from repro.lifetime.telemetry import TELEMETRY_VERSION
from repro.service import (
    MemoryService,
    ServiceError,
    ShardedController,
    make_stream,
    run_workload,
)

LINES = 48
SERVICE_KWARGS = dict(
    endurance_mean=40.0, endurance_cov=0.2, seed=13, n_banks=4,
)


def _stream(count, seed=13, profile="memcached"):
    stream = make_stream(profile, LINES, seed)
    return [(r.line, r.data) for r in stream.iter_requests(count)]


def _reference(stream, shards, chunk=None):
    """In-process fleet replaying the stream, ``chunk`` requests at a time.

    ``chunk`` must match how the service under test submits: the batch
    scheduler's wave telemetry depends on segment boundaries, and the
    bit-equality gates below include it -- same chunking, same waves.
    """
    fleet = ShardedController(comp_wf(), LINES, shards=shards, **SERVICE_KWARGS)
    if chunk is None:
        fleet.write_batch(stream)
    else:
        for start in range(0, len(stream), chunk):
            fleet.write_batch(stream[start:start + chunk])
    return fleet


def test_service_matches_in_process_fleet(tmp_path):
    stream = _stream(600)
    reference = _reference(stream, shards=3, chunk=64)
    with MemoryService(
        comp_wf(), LINES, shards=3, telemetry_dir=str(tmp_path),
        heartbeat_interval=100, fleet_interval=200, **SERVICE_KWARGS,
    ) as service:
        for start in range(0, len(stream), 64):
            service.submit(stream[start:start + 64])
        assert service.stats() == reference.stats
        for line in range(0, LINES, 5):
            assert service.read(line) == reference.read(line)
        result = service.stop()

    assert result.requests_routed == len(stream)
    assert result.recoveries == 0
    assert result.stats == reference.stats
    assert result.shard_stats == reference.shard_stats()
    assert result.dead_fraction == reference.dead_fraction
    assert sum(result.shard_writes) == len(stream)
    # to_dict must be JSON-serializable as-is (golden comparisons).
    json.dumps(result.to_dict())


def test_one_shard_service_matches_monolithic_reference(tmp_path):
    stream = _stream(300)
    reference = _reference(stream, shards=1)
    with MemoryService(comp_wf(), LINES, shards=1, **SERVICE_KWARGS) as service:
        service.submit(stream)
        result = service.stop()
    assert result.stats == reference.stats


def test_telemetry_streams_follow_the_jsonl_conventions(tmp_path):
    stream = _stream(500)
    with MemoryService(
        comp_wf(), LINES, shards=2, telemetry_dir=str(tmp_path),
        heartbeat_interval=100, fleet_interval=100, **SERVICE_KWARGS,
    ) as service:
        for start in range(0, len(stream), 50):
            service.submit(stream[start:start + 50])
        service.stop()

    fleet_events = [
        json.loads(line)
        for line in (tmp_path / "fleet.jsonl").read_text().splitlines()
    ]
    kinds = [event["event"] for event in fleet_events]
    assert kinds[0] == "service_start"
    assert kinds[-1] == "service_end"
    assert "fleet_heartbeat" in kinds
    assert all(event["version"] == TELEMETRY_VERSION for event in fleet_events)
    routed = [
        e["requests_routed"] for e in fleet_events
        if e["event"] == "fleet_heartbeat"
    ]
    assert routed == sorted(routed)
    for shard in range(2):
        shard_events = [
            json.loads(line)
            for line in (
                tmp_path / f"shard-{shard}" / "events.jsonl"
            ).read_text().splitlines()
        ]
        shard_kinds = [event["event"] for event in shard_events]
        assert shard_kinds[0] == "shard_start"
        assert shard_kinds[-1] == "shard_end"
        assert "shard_heartbeat" in shard_kinds
        assert all(e["shard"] == shard for e in shard_events)


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_every_counter_reaches_the_service_streams(tmp_path):
    fields = {f.name for f in dataclasses.fields(ControllerStats)}
    stream = _stream(400)
    with MemoryService(
        comp_wf(), LINES, shards=2, telemetry_dir=str(tmp_path),
        heartbeat_interval=100, fleet_interval=100, **SERVICE_KWARGS,
    ) as service:
        for start in range(0, len(stream), 50):
            service.submit(stream[start:start + 50])
        final = service.stats().to_dict()
        service.stop()

    fleet = _events(tmp_path / "fleet.jsonl")
    beats = [e for e in fleet if e["event"] == "fleet_heartbeat"]
    assert beats and fleet[-1]["event"] == "service_end"
    for event in beats + [fleet[-1]]:
        assert set(event["stats"]) == fields
    # The stream ends on a fleet_interval boundary, so the last fleet
    # heartbeat already shows the final fleet state.
    assert beats[-1]["requests_routed"] == len(stream)
    assert beats[-1]["stats"] == final
    assert fleet[-1]["stats"] == final
    for shard in range(2):
        events = _events(tmp_path / f"shard-{shard}" / "events.jsonl")
        counted = [
            e for e in events
            if e["event"] in ("shard_heartbeat", "shard_end")
        ]
        assert "shard_heartbeat" in {e["event"] for e in counted}
        for event in counted:
            assert set(event["stats"]) == fields


def test_malformed_submit_is_rejected_before_it_reaches_a_shard():
    stream = _stream(200)
    with MemoryService(comp_wf(), LINES, shards=2, **SERVICE_KWARGS) as service:
        service.submit(stream[:100])
        with pytest.raises(ValueError, match="64 bytes"):
            service.submit(stream[100:110] + [(3, b"short")])
        service.submit(stream[100:])
        result = service.stop()
    assert result.recoveries == 0
    assert result.requests_routed == len(stream)
    assert result.stats == _reference(stream, shards=2, chunk=100).stats


def _kill_and_wait(service, shard):
    pid = service.worker_pid(shard)
    os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + 10
    while service._workers[shard].is_alive():
        if time.monotonic() > deadline:  # pragma: no cover - hung kill
            raise RuntimeError("worker refused to die")
        time.sleep(0.01)


def test_sigterm_kill_recovers_bit_identically(tmp_path):
    stream = _stream(3_000)
    reference = _reference(stream, shards=4, chunk=50)
    victim = 2
    with MemoryService(
        comp_wf(), LINES, shards=4, telemetry_dir=str(tmp_path),
        heartbeat_interval=250, fleet_interval=250, **SERVICE_KWARGS,
    ) as service:
        half = len(stream) // 2
        for start in range(0, half, 50):
            service.submit(stream[start:start + 50])
        _kill_and_wait(service, victim)
        for start in range(half, len(stream), 50):
            service.submit(stream[start:start + 50])
        result = service.stop()

    assert result.recoveries == 1
    assert result.requests_routed == len(stream)
    assert result.stats == reference.stats
    assert result.shard_stats == reference.shard_stats()
    assert result.dead_fraction == reference.dead_fraction

    # Sweep-style quarantine: the dead worker's telemetry moved aside...
    quarantined = tmp_path / f"shard-{victim}" / "attempt-1" / "events.jsonl"
    assert quarantined.exists()
    # ...and the respawned worker wrote a fresh stream alongside it.
    fresh = tmp_path / f"shard-{victim}" / "events.jsonl"
    assert fresh.exists()
    fleet = _events(tmp_path / "fleet.jsonl")
    kinds = [event["event"] for event in fleet]
    assert kinds[0] == "service_start"
    assert "fleet_heartbeat" in kinds
    assert kinds[-1] == "service_end"
    assert fleet[-1]["stats"] == reference.stats.to_dict()
    recovered = [e for e in fleet if e["event"] == "shard_recovered"]
    assert len(recovered) == 1
    assert recovered[0]["shard"] == victim
    assert recovered[0]["attempt"] == 1
    assert recovered[0]["quarantine"] == str(
        Path(tmp_path) / f"shard-{victim}" / "attempt-1"
    )


def test_retry_budget_exhaustion_raises_service_error():
    stream = _stream(200)
    service = MemoryService(
        comp_wf(), LINES, shards=2, retries=0, **SERVICE_KWARGS,
    )
    service.start()
    try:
        service.submit(stream[:100])
        _kill_and_wait(service, 1)
        with pytest.raises(ServiceError, match="retry budget"):
            service.submit(stream[100:])
    finally:
        # The healthy shard still stops cleanly.
        try:
            service.stop()
        except ServiceError:
            pass


def _die_once(marker, method):
    """``method``, except that the first call in any process exits it.

    Creating ``marker`` is atomic, so exactly one call dies even when
    several forked workers reach it at once; respawns find the marker
    and run ``method`` normally.
    """
    def dying(*args):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return method(*args)
        os._exit(1)

    return dying


@pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="workers must inherit the patched controller",
)
def test_worker_death_mid_read_or_snapshot_re_sends_it(tmp_path, monkeypatch):
    stream = _stream(200)
    line = stream[-1][0]
    reference = _reference(stream, shards=2)
    expected_stats = reference.stats
    assert reference.read(line) == stream[-1][1]
    monkeypatch.setattr(
        CompressedPCMController, "read",
        _die_once(tmp_path / "read", CompressedPCMController.read),
    )
    monkeypatch.setattr(
        CompressedPCMController, "stats",
        property(_die_once(
            tmp_path / "stats", CompressedPCMController.stats.fget
        )),
    )
    with MemoryService(
        comp_wf(), LINES, shards=2, worker_timeout=6, **SERVICE_KWARGS,
    ) as service:
        service.submit(stream)
        started = time.monotonic()
        data = service.read(line)
        stats = service.stats()
        elapsed = time.monotonic() - started
        result = service.stop()
    assert data == stream[-1][1]
    assert stats == expected_stats
    assert result.recoveries == 2
    assert elapsed < service.worker_timeout / 2


def test_run_workload_drives_either_front_end():
    requests = 300
    reference = ShardedController(comp_wf(), LINES, shards=2, **SERVICE_KWARGS)
    run_workload(reference, "nginx", requests, batch=32, seed=5)
    with MemoryService(comp_wf(), LINES, shards=2, **SERVICE_KWARGS) as service:
        run_workload(service, "nginx", requests, batch=32, seed=5)
        result = service.stop()
    assert result.requests_routed == requests
    assert result.stats == reference.stats


def test_workers_clear_window_caches_across_shard_restarts(tmp_path):
    """Service runs leave no placement-cache residue (PR 3's sweep fix).

    Two layers: in this (parent) process a service run must not touch
    the module-global caches at all -- the simulation happens in the
    workers -- and a worker restart must reconstruct bit-identical
    state from a cold cache, which the SIGTERM test above proves and
    this one re-checks cheaply while inspecting the caches directly.
    """
    from repro.core import window

    stream = _stream(200)
    reference_stats = _reference(stream, shards=2, chunk=100).stats
    window.clear_window_caches()
    with MemoryService(comp_wf(), LINES, shards=2, **SERVICE_KWARGS) as service:
        service.submit(stream[:100])
        _kill_and_wait(service, 0)
        service.submit(stream[100:])
        result = service.stop()
    assert result.recoveries == 1
    assert result.stats == reference_stats
    # The parent never simulated anything, and worker teardown clears
    # its own (per-process) caches -- so ours must still be empty.
    assert not window._MASK_CACHE
    assert not window._PAYLOAD_BITS_CACHE

    # The teardown hook itself: a worker loop that exits (stop or
    # crash) must leave the process-global caches empty for whatever
    # runs next in that process.
    from repro.service.service import ShardSpec, shard_worker

    def probe(spec, requests, replies, leftovers):
        shard_worker(spec, requests, replies)
        leftovers.put(
            len(window._MASK_CACHE) + len(window._PAYLOAD_BITS_CACHE)
        )

    ctx = mp.get_context()
    requests, replies, leftovers = ctx.Queue(), ctx.Queue(), ctx.Queue()
    spec = ShardSpec(
        index=0, config=comp_wf(), start=0, stop=16,
        endurance_mean=40.0, endurance_cov=0.2, seed=3, n_banks=4,
        fault_mode=service.specs[0].fault_mode, cell_type="slc",
        telemetry_dir=None, heartbeat_interval=100,
    )
    in_range = [(line, data) for line, data in stream if line < 16]
    requests.put(("apply", in_range[:50]))
    requests.put(("stop",))
    worker = ctx.Process(target=probe, args=(spec, requests, replies, leftovers))
    worker.start()
    worker.join(timeout=60)
    assert leftovers.get(timeout=10) == 0
