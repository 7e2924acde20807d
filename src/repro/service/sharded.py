"""In-process sharded fleet: K plain controllers behind one map.

:class:`ShardedController` is the reference semantics of the memory
service: it partitions the global logical address space with a
:class:`~repro.engine.address_space.ShardMap` and runs one complete,
unmodified :class:`~repro.core.CompressedPCMController` per shard, each
over the local lines of its contiguous slice.  The multi-process
:class:`~repro.service.service.MemoryService` is bit-identical to this
class by construction (same routing, same per-shard controllers, same
seeds) -- tests compare the two directly -- and this class in turn is
bit-identical to K *independent* single-bank controllers each replaying
its shard's sub-stream, because sharding is pure routing: every request
is translated to its shard's local line here, at the front door (see
:mod:`repro.engine.address_space`).

With ``shards=1`` the single controller gets the base seed unchanged
and owns the whole space (local lines are global ones), so a 1-shard fleet reproduces the
monolithic controller -- and the existing golden-trace digests --
bit for bit.
"""

from __future__ import annotations

from ..core.config import SystemConfig
from ..core.controller import WriteResult
from ..engine.address_space import ShardMap
from ..engine.context import ControllerStats
from ..tier import HybridController
from .service import ServiceResult, _build_controller, shard_specs


class ShardedController:
    """K plain controllers serving one global address space.

    Every shard runs ``config``, its DRAM front tier included
    (``config.tier_lines`` lines per shard).
    """

    def __init__(
        self,
        config: SystemConfig,
        total_lines: int,
        shards: int = 1,
        endurance_mean: float = 100.0,
        endurance_cov: float = 0.15,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.shard_map = ShardMap(total_lines, shards)
        self.total_lines = total_lines
        # The same specs and builder as the service's shard workers, so
        # the two fleets cannot drift apart.  Each shard's DRAM front
        # tier (when ``config.tier_lines``) sees only its own
        # sub-stream, which keeps fleet bit-identity to independent
        # tiered controllers.
        self.controllers = [
            _build_controller(spec)
            for spec in shard_specs(
                self.shard_map, seed, config=config,
                endurance_mean=endurance_mean, endurance_cov=endurance_cov,
            )
        ]
        #: Requests routed to each shard so far.
        self.shard_requests = [0] * len(self.controllers)

    @property
    def shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self.controllers)

    # -- request routing -------------------------------------------------

    def write(self, line: int, data: bytes) -> WriteResult:
        """Route one global-line demand write to its owning shard."""
        shard, local = self.shard_map.to_local(line)
        self.shard_requests[shard] += 1
        return self.controllers[shard].write(local, data)

    def write_batch(self, requests) -> list[WriteResult]:
        """Route a batch of ``(line, data)`` requests by shard.

        Requests are translated to local lines and grouped per shard
        preserving stream order (shards are independent address
        spaces, so only the within-shard order matters for
        bit-identity) and each group flows through the shard's batched
        write engine; results come back in request order.
        """
        requests = list(requests)
        buckets: list[list] = [[] for _ in self.controllers]
        slots: list[list[int]] = [[] for _ in self.controllers]
        for position, (line, data) in enumerate(requests):
            shard, local = self.shard_map.to_local(line)
            buckets[shard].append((local, data))
            slots[shard].append(position)
        results: list[WriteResult | None] = [None] * len(requests)
        for shard, (controller, bucket, positions) in enumerate(
            zip(self.controllers, buckets, slots)
        ):
            if not bucket:
                continue
            self.shard_requests[shard] += len(bucket)
            for position, result in zip(
                positions, controller.write_batch(bucket)
            ):
                results[position] = result
        return results

    def read(self, line: int) -> bytes | None:
        """Read one global line back from its owning shard."""
        shard, local = self.shard_map.to_local(line)
        return self.controllers[shard].read(local)

    def flush_tiers(self) -> int:
        """Flush every shard's DRAM tier to PCM; returns lines flushed.

        A no-op (returning 0) on a bare fleet, so callers can always
        call it before comparing PCM-resident state.
        """
        return sum(
            controller.flush()
            for controller in self.controllers
            if isinstance(controller, HybridController)
        )

    # -- fleet views -----------------------------------------------------

    @property
    def stats(self) -> ControllerStats:
        """The exact fleet aggregate of every shard's counters."""
        return ControllerStats.merge_all(
            controller.stats for controller in self.controllers
        )

    def shard_stats(self) -> list[ControllerStats]:
        """Each shard's own counters, in shard order."""
        return [controller.stats for controller in self.controllers]

    @property
    def dead_fraction(self) -> float:
        """Fleet-wide dead blocks over fleet-wide nominal capacity."""
        dead = sum(c.engine.dead_count for c in self.controllers)
        capacity = sum(c.engine.capacity_lines for c in self.controllers)
        return dead / capacity

    def result(self) -> ServiceResult:
        """The complete fleet view, shaped like a service run's."""
        return ServiceResult(
            shards=self.shards,
            total_lines=self.total_lines,
            requests_routed=sum(self.shard_requests),
            recoveries=0,
            dead_fraction=self.dead_fraction,
            stats=self.stats,
            shard_stats=self.shard_stats(),
            shard_writes=list(self.shard_requests),
        )
