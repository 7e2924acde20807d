"""Shared state, per-write context, and counters for the write engine.

The engine splits the write path into stages (see
:mod:`repro.engine.stages`) that communicate through two objects:

* :class:`EngineState` -- the long-lived, shared mutable state of one
  PCM region: the bank array, the per-line metadata columns
  (:class:`~repro.core.metadata.LineTable`), death bookkeeping,
  wear-leveling and correction components, and the statistics counters.
  Exactly one instance exists per controller; every stage holds a
  reference to it.
* :class:`WriteContext` -- the scratch state of one in-flight write:
  the chosen storage format, payload, window hint, and accumulated
  flags.  A fresh context is created per demand/gap-move write and
  flows through the stage list.

:class:`WriteResult` and :class:`ControllerStats` live here because the
stages are what produce them; :mod:`repro.core` re-exports both under
their historical names.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from ..compression import BestOfCompressor, CompressionResult
from ..core.config import SystemConfig
from ..core.heuristic import BitFlipHeuristic
from ..core.metadata import LineTable
from ..core.window import LINE_BYTES
from ..correction.base import CorrectionScheme
from ..correction.freep import FreePRemapper
from ..wearleveling import IntraLineWearLeveler


class WriteResult(NamedTuple):
    """Outcome of one engine write.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    write on the simulator's hot path, and tuple construction is
    several times cheaper while keeping the same immutable,
    attribute-accessed surface.
    """

    physical: int
    compressed: bool
    size_bytes: int
    window_start: int
    flips: int
    died: bool = False
    revived: bool = False
    lost: bool = False
    heuristic_step: int = 0


@dataclass
class ControllerStats:
    """Aggregate write-path counters, maintained by the pipeline stages.

    Each counter is owned by exactly one stage (noted per group below);
    the pipeline itself owns only the top-level write accounting.  Two
    invariants follow from that ownership and are pinned by
    ``tests/core/test_stats_invariants.py``:

    * ``stored_writes == compressed_writes + uncompressed_writes``
      (definitionally -- ``stored_writes`` is derived, never counted);
    * every write either commits exactly once or is lost exactly once:
      ``demand_writes + gap_move_writes == stored_writes + lost_writes``.
    """

    # -- pipeline-level write accounting --------------------------------
    demand_writes: int = 0
    gap_move_writes: int = 0
    lost_writes: int = 0
    # -- CompressStage ---------------------------------------------------
    heuristic_steps: dict[int, int] = field(default_factory=dict)
    sc_updates: int = 0
    #: Content-addressed compression-cache counters, mirrored from the
    #: :class:`~repro.compression.cache.CachingCompressor` (both stay 0
    #: when the cache is disabled or compression is off).
    compression_cache_hits: int = 0
    compression_cache_misses: int = 0
    # -- PlacementStage --------------------------------------------------
    window_slides: int = 0
    # -- ProgramStage ----------------------------------------------------
    total_flips: int = 0
    set_flips: int = 0
    reset_flips: int = 0
    # -- EncodingStage (WIRE / restricted coset; repro.energy) -----------
    #
    # All zero when ``config.encoding == "none"`` (no encoder is built),
    # so they cannot perturb bit-identity of non-encoded runs.  Flag
    # flips are the selector/flag cells programmed alongside the data --
    # the energy model prices them at the same SET/RESET pulse costs as
    # array cells; ``encoded_words`` counts words stored under a
    # non-identity coset this run.
    encoding_flag_set_flips: int = 0
    encoding_flag_reset_flips: int = 0
    encoded_words: int = 0
    # -- CorrectionStage (commit + FREE-p remap) -------------------------
    compressed_writes: int = 0
    uncompressed_writes: int = 0
    start_pointer_updates: int = 0
    encoding_updates: int = 0
    #: Repair-state refreshes (writes landing on a line with stuck
    #: cells); the per-commit gate-energy multiplier in ``repro.energy``.
    repair_commits: int = 0
    remaps: int = 0  # FREE-p extension: blocks retired to spares
    # -- WoLFRaM PAD backend (``config.wl_backend == "wolfram"``) --------
    #
    #: Programmable-address-decoder entries rewritten: 2 per
    #: wear-leveling swap plus 1 per remap-to-spare redirect (and per
    #: collapsed chain link).  Always 0 on the Start-Gap backend, so it
    #: cannot perturb bit-identity of existing runs; the energy model
    #: prices each rewrite as a register update
    #: (:data:`repro.energy.model.PAD_ENTRY_BITS`).
    pad_table_writes: int = 0
    # -- RemapStage (death / revival) ------------------------------------
    deaths: int = 0
    revivals: int = 0
    # -- BatchScheduler (observability only) -----------------------------
    #
    # Pure scheduling telemetry: how the out-of-order batch scheduler
    # partitioned request streams into waves and why it had to cut
    # serial barriers.  These counters describe *how* writes were
    # executed, never *what* was written, so they are excluded from
    # bit-identity comparisons (see :data:`SCHEDULER_FIELDS`) -- a
    # batched run and its serial replay agree on every other field
    # while legitimately disagreeing here.
    batch_waves: int = 0
    batch_wave_ops: int = 0
    batch_wave_width_max: int = 0
    batch_collision_edges: int = 0
    barrier_gap_move: int = 0
    barrier_collision: int = 0
    barrier_ineligible_row: int = 0
    # -- DramTier (hybrid DRAM front tier; repro.tier) --------------------
    #
    # Maintained by the tier's routing logic, never by the pipeline; all
    # zero whenever no tier is configured, so they cannot perturb
    # bit-identity of bare-controller runs.  ``tier_pcm_writes_avoided``
    # counts demand writes the tier absorbed (coalesced or admitted);
    # the *net* PCM demand-write reduction over a stream is that figure
    # minus the eviction flushes (and any final drain), which the inner
    # counters account as ordinary demand writes.
    tier_hits: int = 0
    tier_coalesced_writes: int = 0
    tier_dedup_hits: int = 0
    tier_evictions: int = 0
    tier_pcm_writes_avoided: int = 0

    def count_step(self, step: int) -> None:
        """Tally one Figure 8 step for the statistics."""
        self.heuristic_steps[step] = self.heuristic_steps.get(step, 0) + 1

    @property
    def batch_wave_width_mean(self) -> float:
        """Mean scheduled ops per wave (0.0 before any batched write)."""
        if not self.batch_waves:
            return 0.0
        return self.batch_wave_ops / self.batch_waves

    @property
    def stored_writes(self) -> int:
        """Writes that landed (compressed or raw) -- the derived total."""
        return self.compressed_writes + self.uncompressed_writes

    @property
    def compression_cache_hit_rate(self) -> float:
        """Cache hits over lookups (0.0 when the cache never ran)."""
        lookups = self.compression_cache_hits + self.compression_cache_misses
        if not lookups:
            return 0.0
        return self.compression_cache_hits / lookups

    def to_dict(self) -> dict:
        """Every counter, JSON-ready (the telemetry ``stats`` object)."""
        payload = asdict(self)
        # JSON objects key by string; keep the heuristic histogram readable.
        payload["heuristic_steps"] = {
            str(step): count for step, count in self.heuristic_steps.items()
        }
        return payload

    # -- fleet aggregation ----------------------------------------------
    #
    # Every counter is an additive event count over disjoint write
    # streams, so shard stats merge exactly: the fleet view of K shards
    # is the field-wise sum of the shard views.  ``merge`` forms a
    # commutative monoid with :meth:`identity` as its identity element
    # (pinned by ``tests/engine/test_stats_merge.py``).

    @classmethod
    def identity(cls) -> "ControllerStats":
        """The merge identity: a stats record with every counter zero."""
        return cls()

    def merge(self, other: "ControllerStats") -> "ControllerStats":
        """The exact fleet aggregate of two disjoint shards' counters.

        Returns a new record; neither operand is mutated.  Associative
        and commutative, with :meth:`identity` as the identity element,
        so any reduction order over shard stats yields the same fleet
        view.
        """
        steps = dict(self.heuristic_steps)
        for step, count in other.heuristic_steps.items():
            steps[step] = steps.get(step, 0) + count
        merged = ControllerStats(heuristic_steps=steps)
        for name in self.__dataclass_fields__:
            if name == "heuristic_steps":
                continue
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        # The one non-additive counter: the widest wave any shard saw.
        # max() is associative/commutative with identity 0, so the
        # monoid laws the other fields satisfy still hold.
        merged.batch_wave_width_max = max(
            self.batch_wave_width_max, other.batch_wave_width_max
        )
        return merged

    @classmethod
    def merge_all(cls, stats) -> "ControllerStats":
        """Fold :meth:`merge` over any iterable of shard stats."""
        merged = cls.identity()
        for item in stats:
            merged = merged.merge(item)
        return merged

    def copy(self) -> "ControllerStats":
        """An independent copy, the steps histogram included (results
        and heartbeats keep one while the controller keeps counting)."""
        return self.merge(ControllerStats())

    def without_scheduler_telemetry(self) -> "ControllerStats":
        """A copy with the wave/barrier telemetry zeroed.

        Bit-identity comparisons between differently-executed replays
        of one stream (serial vs batched, or different chunkings) use
        this view: the scheduler counters describe execution shape and
        legitimately differ, every remaining counter must agree
        exactly.  See :data:`SCHEDULER_FIELDS`.
        """
        clone = self.copy()
        for name in SCHEDULER_FIELDS:
            setattr(clone, name, 0)
        return clone


#: The :class:`ControllerStats` fields that describe *how* the batch
#: scheduler executed a stream rather than *what* was written.  A
#: batched run is bit-identical to its serial replay on every counter
#: except these (a serial loop has no waves or barriers), so
#: equivalence tests and state fingerprints exclude them.
SCHEDULER_FIELDS = frozenset(
    {
        "batch_waves",
        "batch_wave_ops",
        "batch_wave_width_max",
        "batch_collision_edges",
        "barrier_gap_move",
        "barrier_collision",
        "barrier_ineligible_row",
    }
)


@dataclass
class EngineState:
    """Long-lived shared state of one PCM region's write engine."""

    config: SystemConfig
    scheme: CorrectionScheme
    compressor: BestOfCompressor
    memory: object  # PCMBankArray | MLCBankArray (duck-typed line store)
    start_gap: object  # StartGap | RegionStartGap | WolframPAD
    #: Per-line metadata of every physical line, as columns.
    metadata: LineTable
    dead: np.ndarray
    repairs: list[dict[int, int]]
    death_fault_counts: dict[int, int]
    stats: ControllerStats
    capacity_lines: int
    heuristic: BitFlipHeuristic | None = None
    intra_wl: IntraLineWearLeveler | None = None
    #: Remap-to-spare pool: a FREE-p pointer-chain remapper on the
    #: default backend, a :class:`~repro.wearleveling.wolfram.
    #: PadSpareRemapper` under ``wl_backend == "wolfram"`` (duck-typed:
    #: both expose ``resolve`` / ``remap`` / ``spares_available``).
    remapper: FreePRemapper | None = None
    #: Write-energy-reducing line encoder (``repro.energy.encoders``),
    #: or ``None`` when ``config.encoding == "none"``.  Duck-typed to
    #: avoid a core->energy import cycle; the
    #: :class:`~repro.engine.stages.EncodingStage` drives it.
    encoder: object | None = None
    #: Maintained count of True entries in ``dead`` -- kept in sync by
    #: RemapStage.mark_dead/revive so ``dead_fraction`` is O(1).
    dead_count: int = 0

    def __setstate__(self, state: dict) -> None:
        # Checkpoints before format version 3 pickled the metadata as a
        # list of per-line LineMetadata records.
        if isinstance(state["metadata"], list):
            state["metadata"] = LineTable.from_records(state["metadata"])
        self.__dict__.update(state)

    def bank_of(self, physical: int) -> int:
        """The bank a physical line belongs to (round-robin striping)."""
        return physical % self.config.n_banks

    def resolve(self, physical: int) -> int:
        """Follow FREE-p remap pointers when the extension is enabled."""
        if self.remapper is None:
            return physical
        return self.remapper.resolve(physical)

    @property
    def dead_fraction(self) -> float:
        """Dead blocks as a fraction of the nominal (non-spare) capacity."""
        return self.dead_count / self.capacity_lines


@dataclass(slots=True)
class WriteContext:
    """Scratch state of one write as it flows through the pipeline.

    The compress stage fixes the storage format (``compressed``,
    ``payload``, ``size``); the placement/program/correction loop
    consumes and updates ``hint``; the remap stage may rewrite the
    format on a fallback-to-compressed rescue.  ``was_dead`` and
    ``revival_allowed`` carry the dead-block revival gate's inputs.
    """

    physical: int
    data: bytes
    revival_allowed: bool = False
    was_dead: bool = False
    compressed: bool = False
    result: CompressionResult | None = None
    payload: bytes = b""
    size: int = LINE_BYTES
    hint: int = 0
    step: int = 0
    #: Maintained fault count of the current physical line: set by the
    #: placement stage, bumped by the program stage when cells wear out,
    #: so verify/commit need no further memory lookups.
    line_faults: int = 0
