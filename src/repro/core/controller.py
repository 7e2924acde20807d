"""The compression-aware PCM memory controller (Section III).

This is the paper's core contribution wired together: on every
write-back the controller

1. compresses the data (best of BDI and FPC) and runs the Figure 8
   heuristic to decide compressed vs uncompressed storage;
2. finds a feasible compression window -- starting from the bank's
   intra-line rotation offset (Comp+W) or the line's current pointer --
   sliding it away from cell regions the correction scheme cannot
   cover (Figure 4);
3. issues a differential write restricted to the window, absorbs any
   cells that wore out during the write by re-checking feasibility (and
   re-placing if needed), and updates the 13-bit line metadata;
4. marks the block dead when no feasible placement exists; under
   Comp+WF a dead block is re-examined whenever inter-line wear-leveling
   (Start-Gap) moves a line into it, and revived if the incoming data
   fits (Section III-A.3).

Since the ``repro.engine`` refactor the mechanisms live in the
composable stage pipeline (:mod:`repro.engine.stages`,
:mod:`repro.engine.pipeline`); this class is a thin facade that builds
the :class:`~repro.engine.context.EngineState`, owns the logical-line
shadow store, and drives the pipeline -- its public API and semantics
are unchanged (pinned bit-for-bit by ``tests/golden/``).

Reads are modelled end-to-end as well: stuck cells inside the window
are repaired from the scheme's correction state (ECP replacement bits /
SAFER-Aegis inversion groups store exactly the written value), then the
payload is decompressed per the line's encoding metadata.
"""

from __future__ import annotations

import numpy as np

from ..compression import BestOfCompressor, CachingCompressor, CompressionResult
from ..correction import make_scheme
from ..correction.freep import FreePRemapper
from ..engine.context import ControllerStats, EngineState, WriteResult
from ..engine.pipeline import WritePipeline
from ..engine.scheduler import BatchScheduler
from ..pcm import PCMBankArray, EnduranceModel
from ..pcm.mlc import MLCBankArray
from ..wearleveling import (
    IntraLineWearLeveler,
    PadSpareRemapper,
    RegionStartGap,
    StartGap,
    WolframPAD,
)
from .config import SystemConfig
from .heuristic import BitFlipHeuristic
from .metadata import LineTable
from .window import LINE_BYTES, extract_bytes

__all__ = ["CompressedPCMController", "ControllerStats", "WriteResult"]


class CompressedPCMController:
    """Memory controller for one PCM region of ``n_lines`` logical lines."""

    def __init__(
        self,
        config: SystemConfig,
        n_lines: int,
        endurance_model: EnduranceModel,
        rng: np.random.Generator,
        invariants: tuple = (),
    ) -> None:
        if n_lines < 1:
            raise ValueError("need at least one logical line")
        self.config = config
        self.n_lines = n_lines

        # The wear-leveling / fault-remap backend (``wl_backend``):
        # Start-Gap + FREE-p (the paper's substrate, default) or the
        # WoLFRaM programmable address decoder.
        wl_backend = config.wl_backend
        if wl_backend == "wolfram":
            start_gap = WolframPAD(n_lines, period=config.start_gap_psi)
        elif config.start_gap_regions > 1:
            start_gap = RegionStartGap(
                n_lines, psi=config.start_gap_psi,
                regions=config.start_gap_regions,
            )
        else:
            start_gap = StartGap(n_lines, psi=config.start_gap_psi)

        base_physical = start_gap.physical_lines
        spare_count = int(base_physical * config.spare_line_fraction)
        physical = base_physical + spare_count
        if not spare_count:
            remapper = None
        elif wl_backend == "wolfram":
            # PAD remap-to-spare: the redirect lives in the decoder
            # table, so no pointer capacity in the dead line is needed.
            remapper = PadSpareRemapper(
                spare_lines=list(range(base_physical, physical))
            )
        else:
            remapper = FreePRemapper(
                spare_lines=list(range(base_physical, physical)),
                pointer_bits=max(1, (physical - 1).bit_length()),
            )
        array_cls = PCMBankArray if config.cell_type == "slc" else MLCBankArray
        engine_compressor = BestOfCompressor()
        if config.use_compression and config.compression_cache_lines:
            # Content-addressed memoization; transparent (the cached
            # results are the same frozen CompressionResult objects).
            engine_compressor = CachingCompressor(
                engine_compressor, capacity=config.compression_cache_lines
            )
        self.engine = EngineState(
            config=config,
            scheme=make_scheme(config.correction_scheme),
            compressor=engine_compressor,
            memory=array_cls(physical, endurance_model, rng),
            start_gap=start_gap,
            metadata=LineTable(physical),
            dead=np.zeros(physical, dtype=bool),
            repairs=[{} for _ in range(physical)],
            death_fault_counts={},
            stats=ControllerStats(),
            capacity_lines=base_physical,
            heuristic=(
                BitFlipHeuristic(config.threshold1, config.threshold2)
                if config.use_heuristic
                else None
            ),
            intra_wl=(
                IntraLineWearLeveler(
                    n_banks=config.n_banks,
                    counter_limit=config.intra_counter_limit,
                )
                if config.use_intra_wear_leveling
                else None
            ),
            remapper=remapper,
        )
        if config.encoding != "none":
            # Deferred import: repro.energy depends on repro.core for
            # line geometry, so importing it at module scope would cycle.
            from ..energy.encoders import make_encoder

            self.engine.encoder = make_encoder(config.encoding, physical)
        # PAD components mirror their table rewrites into the priced
        # ``pad_table_writes`` counter (shared object: pickle keeps the
        # reference identity, so checkpoints stay consistent).
        if wl_backend == "wolfram":
            start_gap.bind_stats(self.engine.stats)
            if remapper is not None:
                remapper.bind_stats(self.engine.stats)
        # Debug-mode invariant checkers (repro.validate.invariants),
        # run by the pipeline after every write; empty by default.
        self.pipeline = WritePipeline(self.engine, invariants=invariants)
        self._shadow: dict[int, bytes] = {}
        # Out-of-order batch scheduler (stateless between calls; shares
        # the pipeline and the shadow store).
        self.scheduler = BatchScheduler(self.pipeline, self._shadow)

    # -- engine state passthrough (historical public attributes) ---------

    @property
    def compressor(self) -> BestOfCompressor:
        return self.engine.compressor

    @property
    def scheme(self):
        return self.engine.scheme

    @property
    def start_gap(self):
        return self.engine.start_gap

    @property
    def remapper(self) -> FreePRemapper | PadSpareRemapper | None:
        return self.engine.remapper

    @property
    def memory(self):
        return self.engine.memory

    @property
    def metadata(self) -> LineTable:
        return self.engine.metadata

    @property
    def dead(self) -> np.ndarray:
        return self.engine.dead

    @property
    def death_fault_counts(self) -> dict[int, int]:
        return self.engine.death_fault_counts

    @property
    def intra_wl(self) -> IntraLineWearLeveler | None:
        return self.engine.intra_wl

    @property
    def heuristic(self) -> BitFlipHeuristic | None:
        return self.engine.heuristic

    @property
    def stats(self) -> ControllerStats:
        return self.engine.stats

    # -- public API ------------------------------------------------------

    def write(self, logical: int, data: bytes) -> WriteResult:
        """Handle one demand write-back from the LLC."""
        if len(data) != LINE_BYTES:
            raise ValueError(f"write data must be {LINE_BYTES} bytes")
        remap = self.pipeline.remap
        movement = remap.on_demand_write(logical)
        if movement is not None:
            self._handle_gap_move(movement)

        self._shadow[logical] = data
        physical = remap.map_logical(logical)
        self.engine.stats.demand_writes += 1
        return self.pipeline.write_line(physical, data, revival_allowed=False)

    def write_batch(
        self, requests: list[tuple[int, bytes]]
    ) -> list[WriteResult]:
        """Handle a batch of demand write-backs from the LLC.

        ``requests`` is a sequence of ``(logical, data)`` pairs, and the
        result list is bit-identical to issuing the same :meth:`write`
        calls in order.  The stream flows through the out-of-order
        :class:`~repro.engine.scheduler.BatchScheduler`, which
        partitions it into maximal independent waves (same-row
        collisions and Start-Gap relocations become per-row dependency
        edges, not global flushes) and executes each wave through the
        vectorized row kernel, committing results back in program
        order.  Engine compositions the scheduler cannot prove
        equivalent for (invariant checkers, line encoders, MLC cells;
        see :meth:`~repro.engine.scheduler.BatchScheduler.supported`)
        fall back to the serial :meth:`write` loop.
        Unlike :meth:`write`, all request payloads are validated up
        front, before any side effects.
        """
        requests = list(requests)
        for _, data in requests:
            if len(data) != LINE_BYTES:
                raise ValueError(f"write data must be {LINE_BYTES} bytes")
        if len(requests) < 2 or not self.scheduler.supported():
            return [self.write(logical, data) for logical, data in requests]
        return self.scheduler.run(requests)

    def _resolve(self, physical: int) -> int:
        """Follow FREE-p remap pointers when the extension is enabled."""
        return self.engine.resolve(physical)

    def read(self, logical: int) -> bytes | None:
        """Read one line back; None when the data was lost to a death."""
        engine = self.engine
        physical = self.pipeline.remap.map_logical(logical)
        if engine.dead[physical]:
            return None
        if logical not in self._shadow:
            return None
        metadata = engine.metadata
        bits = engine.memory.read_bits(physical).copy()
        for position, value in engine.repairs[physical].items():
            bits[position] = value
        # Undo the write-energy line encoding (repairs patch *cell*
        # values, so they apply before decoding); identity when off.
        bits = self.pipeline.encoding.decode_read(physical, bits)
        if not metadata.compressed.item(physical):
            return extract_bytes(bits, 0, LINE_BYTES)
        size = metadata.stored_size.item(physical)
        payload = extract_bytes(bits, metadata.start_pointer.item(physical), size)
        member, encoding = engine.compressor.decode_metadata(
            metadata.encoding.item(physical)
        )
        result = CompressionResult(
            algorithm=member.name,
            encoding=encoding,
            size_bits=size * 8,
            payload=payload,
        )
        return member.decompress(result)

    @property
    def dead_fraction(self) -> float:
        """Dead blocks as a fraction of the nominal (non-spare) capacity.

        A successfully remapped block is not dead -- its logical
        capacity lives on in the spare -- so with the FREE-p extension
        this only rises once remapping fails.
        """
        return self.engine.dead_fraction

    def average_faults_per_dead_block(self) -> float:
        """Mean stuck-cell count over blocks at their (last) death.

        This is the Figure 12 metric: how many faulty cells a failed
        512-bit block had accumulated before becoming unusable.
        """
        counts = self.engine.death_fault_counts
        if not counts:
            return 0.0
        return float(np.mean(list(counts.values())))

    # -- write path ------------------------------------------------------

    def _handle_gap_move(self, movement) -> None:
        """Relocate the lines a placement perturbation displaced.

        Backend-agnostic: ``movement.destinations`` lists every physical
        slot whose logical owner changed -- one for a Start-Gap move,
        two for a WoLFRaM PAD swap -- and each receives its *new*
        owner's data.  These relocation writes are the revival
        checkpoints of the Comp+WF design (``revival_allowed=True``).
        """
        engine = self.engine
        for destination in movement.destinations:
            logical = engine.start_gap.logical_of(destination)
            if logical is None:
                continue  # the Start-Gap spare slot holds no line
            data = self._shadow.get(logical)
            if data is None:
                continue  # the line was never written; nothing to relocate
            engine.stats.gap_move_writes += 1
            self.pipeline.write_line(
                engine.resolve(destination), data, revival_allowed=True
            )
