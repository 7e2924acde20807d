"""Sharded multi-bank PCM memory service (fleet-scale simulation).

Built on the shardable address-space refactor
(:mod:`repro.engine.address_space`): a fleet is K complete, independent
controllers, each over the local lines of its contiguous slice, behind
a front door that routes and translates every request.  Three layers:

* :class:`ShardedController` -- the in-process reference fleet (also
  the bit-identity oracle for the service tests);
* :class:`MemoryService` -- one worker process per shard, JSONL
  telemetry per shard plus an aggregated fleet view, and exact
  (replay-based) recovery from worker deaths;
* :mod:`repro.service.workloads` -- fleet-shaped request streams
  (monotonic / high-reuse / memcached / nginx) and the
  :func:`run_workload` driver.

``python -m repro serve`` drives a stream through a fleet: a
:class:`MemoryService`, or a :class:`ShardedController` with
``--inline``.  ``python -m repro workload`` only saves a stream as a
trace.
"""

from .service import (
    DEFAULT_SHARD_HEARTBEAT,
    MemoryService,
    ServiceError,
    ServiceResult,
    ShardSpec,
    shard_worker,
)
from .sharded import ShardedController
from .workloads import (
    SERVICE_WORKLOADS,
    HighReuseStream,
    MemcachedStream,
    MonotonicStream,
    NginxStream,
    RequestStream,
    make_stream,
    run_workload,
)

__all__ = [
    "DEFAULT_SHARD_HEARTBEAT",
    "SERVICE_WORKLOADS",
    "HighReuseStream",
    "MemcachedStream",
    "MemoryService",
    "MonotonicStream",
    "NginxStream",
    "RequestStream",
    "ServiceError",
    "ServiceResult",
    "ShardSpec",
    "ShardedController",
    "make_stream",
    "run_workload",
    "shard_worker",
]
