"""The composable write-path stages (Section III, decomposed).

Each stage owns one paper mechanism and the statistics counters that
belong to it.  Stages are small, independently testable objects that
share an :class:`~repro.engine.context.EngineState` and communicate
per-write through a :class:`~repro.engine.context.WriteContext`; the
:class:`~repro.engine.pipeline.WritePipeline` sequences them.  The
compress, placement and correction stages also have *segment* methods
(``gather``/``decide_wave``, ``rotate_segment``/``place_wave``,
``commit_metadata_wave``/``commit_repairs_wave``) that the batch
scheduler calls once per segment or wave of writes to distinct rows,
reading and writing the same metadata columns as the serial methods:

==================  ====================================================
stage               mechanism
==================  ====================================================
:class:`CompressStage`    best-of-BDI/FPC selection + Figure 8 heuristic
:class:`PlacementStage`   window fit/slide (Figure 4) + intra-line WL
:class:`EncodingStage`    WIRE / restricted-coset write-energy encoding
                          (identity pass-through when encoding is off)
:class:`ProgramStage`     differential write restricted to the window
:class:`CorrectionStage`  ECP/SAFER/Aegis/SECDED feasibility, commit,
                          and FREE-p remap-to-spare
:class:`RemapStage`       Start-Gap moves, dead-block gate/revival, and
                          the fallback-to-compressed rescue (the "F" in
                          Comp+WF)
==================  ====================================================

The stage boundaries are exactly the seams the related designs swap:
WoLFRaM replaces the remap/correction pair (the PAD drives
:class:`RemapStage` through the Start-Gap surface; the stage
descriptions follow ``config.wl_backend``), CARAM the compress stage.
"""

from __future__ import annotations

import numpy as np

from ..core.window import (
    LINE_BYTES,
    faults_in_window,
    find_window,
    place_bytes,
    window_mask,
)
from .context import EngineState, WriteContext


class Stage:
    """Base class: a named write-path stage bound to an engine state."""

    name: str = "stage"

    def __init__(self, state: EngineState) -> None:
        self.state = state

    def describe(self) -> str:
        """One-line human description for the ``systems`` listing."""
        return self.name

    def _wolfram(self) -> bool:
        """Whether the engine runs the WoLFRaM PAD backend."""
        return self.state.config.wl_backend == "wolfram"


class CompressStage(Stage):
    """Chooses the storage format: best-of compression + Figure 8.

    Populates ``ctx.compressed``, ``ctx.result``, ``ctx.payload``,
    ``ctx.size`` and ``ctx.step`` on the serial path; on the batched
    path :meth:`gather` and :meth:`decide_wave` do the same for a whole
    segment.  Owns the ``heuristic_steps`` and ``sc_updates`` counters.
    """

    name = "compress"

    def __init__(self, state: EngineState) -> None:
        super().__init__(state)
        # Bound once: the content-addressed cache (when a
        # CachingCompressor wraps the best-of policy), else None.
        self._cache = state.compressor if hasattr(state.compressor, "hits") else None

    def run(self, ctx: WriteContext) -> None:
        """Fix the write's storage format on the context."""
        state = self.state
        if state.config.use_compression:
            self._apply_format(
                ctx, *self._decide(ctx.physical, state.compressor.compress(ctx.data))
            )
        else:
            self._apply_format(ctx, False, None, 0)
        self._mirror_cache_counters()

    def _apply_format(self, ctx: WriteContext, compressed, result, step) -> None:
        ctx.compressed = compressed
        ctx.result = result
        ctx.step = step
        if compressed:
            ctx.payload = result.payload
            ctx.size = result.size_bytes
        else:
            ctx.payload = ctx.data
            ctx.size = LINE_BYTES

    def _mirror_cache_counters(self) -> None:
        # Mirror the cache counters into the stats every write so they
        # are always current when a caller snapshots ControllerStats.
        cache = self._cache
        if cache is not None:
            stats = self.state.stats
            stats.compression_cache_hits = cache.hits
            stats.compression_cache_misses = cache.misses

    def _decide(self, physical: int, result):
        """Figure 8 for one write: (store compressed?, result, step)."""
        state = self.state
        size = result.size_bytes
        if size >= LINE_BYTES:
            return False, result, 0
        heuristic = state.heuristic
        if heuristic is None:
            return True, result, 0
        metadata = state.metadata
        sc = metadata.sc.item(physical)
        compress, step, new_sc = heuristic.lookup(
            sc, metadata.stored_size.item(physical), size
        )
        if new_sc != sc:
            metadata.sc[physical] = new_sc
            state.stats.sc_updates += 1
        state.stats.count_step(step)
        return compress, result, step

    # -- batched path ----------------------------------------------------

    def gather(self, lines: list[bytes]):
        """Compress a whole segment in one ``compress_batch`` call.

        Returns ``(sizes, payloads, codes)`` aligned with ``lines`` --
        byte sizes, compressed payloads and 5-bit encoding codes -- or
        ``None`` when compression is off.  The content cache replays
        its probe/evict bookkeeping in program order inside the call.
        """
        state = self.state
        if not state.config.use_compression:
            return None
        compressor = state.compressor
        results = compressor.compress_batch(lines)
        self._mirror_cache_counters()
        size_bits = np.fromiter(
            [result.size_bits for result in results], dtype=np.intp,
            count=len(results),
        )
        return (
            (size_bits + 7) >> 3,
            [result.payload for result in results],
            np.array(compressor.encode_metadata_batch(results), dtype=np.uint8),
        )

    def decide_wave(self, rows: np.ndarray, sizes: np.ndarray):
        """Figure 8 for one wave of writes to *distinct* rows.

        One table lookup decides the whole wave: each row's ``sc`` and
        ``stored_size`` are its own, and no other write in the wave can
        change them.  Returns ``(compressed, step)`` arrays; writes that
        do not compress below a line count no step and keep their SC.
        """
        state = self.state
        heuristic = state.heuristic
        if heuristic is None:
            return sizes < LINE_BYTES, np.zeros(len(rows), dtype=np.uint8)
        metadata = state.metadata
        sc = metadata.sc[rows]
        old_sizes = metadata.stored_size[rows]
        if sizes.max() < LINE_BYTES:
            compress, step, new_sc = heuristic.lookup_many(sc, old_sizes, sizes)
        else:
            fits = sizes < LINE_BYTES
            compress, step, new_sc = heuristic.lookup_many(
                sc, old_sizes, np.where(fits, sizes, 1)
            )
            compress &= fits
            step[~fits] = 0
            new_sc = np.where(fits, new_sc, sc)
        metadata.sc[rows] = new_sc
        stats = state.stats
        stats.sc_updates += int(np.count_nonzero(new_sc != sc))
        steps = stats.heuristic_steps
        for value, count in enumerate(np.bincount(step, minlength=4).tolist()):
            if value and count:
                steps[value] = steps.get(value, 0) + count
        return compress, step

    def describe(self) -> str:
        config = self.state.config
        if not config.use_compression:
            return "compress: off (raw 64B lines)"
        heuristic = (
            f"fig8 heuristic T1={config.threshold1} T2={config.threshold2}"
            if config.use_heuristic
            else "always-compress"
        )
        members = "/".join(m.name for m in self.state.compressor.members)
        return f"compress: best-of({members}), {heuristic}"


class PlacementStage(Stage):
    """Window placement (Figure 4) and intra-line wear-leveling.

    Supplies the initial window hint (the bank's rotation offset under
    Comp+W, else the line's current pointer), finds a feasible window
    for the current payload, and advances the rotation counters after a
    successful write.  Owns the ``window_slides`` counter.
    """

    name = "placement"

    def initial_hint(self, physical: int, ctx: WriteContext) -> int:
        """Where the window search should start for this write."""
        state = self.state
        if not ctx.compressed:
            return 0
        if state.intra_wl is not None:
            return state.intra_wl.offset(state.bank_of(physical))
        return state.metadata.start_pointer.item(physical)

    def place(self, physical: int, ctx: WriteContext) -> int | None:
        """First feasible window start for the payload, or None."""
        state = self.state
        ctx.line_faults = state.memory.fault_count(physical)
        if ctx.line_faults <= state.scheme.deterministic_capability:
            # Any placement works (find_window's fast path, reached here
            # without materializing the fault positions -- the maintained
            # per-block count makes this O(1)).
            start = ctx.hint % LINE_BYTES
        else:
            faults = state.memory.fault_positions(physical)
            start = find_window(faults, ctx.size, state.scheme, start_hint=ctx.hint)
        if start is None:
            return None
        if ctx.compressed and start != state.metadata.start_pointer.item(physical):
            state.stats.window_slides += 1
        return start

    def note_commit(self, physical: int) -> None:
        """Advance the intra-line rotation counters after a landed write."""
        state = self.state
        if state.intra_wl is not None:
            state.intra_wl.record_write(state.bank_of(physical))

    # -- batched path ----------------------------------------------------

    def rotate_segment(self, rows: np.ndarray) -> np.ndarray | None:
        """Count a segment's writes against the rotation counters.

        Every write of a batched segment lands, so the whole segment
        advances the counters at once.  Returns the bank offset each
        write sees -- its :meth:`initial_hint` under intra-line WL --
        or ``None`` without intra-line WL.
        """
        state = self.state
        if state.intra_wl is None:
            return None
        return state.intra_wl.record_writes(rows % state.config.n_banks)

    def place_wave(
        self, rows: np.ndarray, compressed: np.ndarray, offsets: np.ndarray | None
    ) -> np.ndarray:
        """Window starts for one wave of writes to *distinct* rows.

        The batch scheduler only admits rows whose faults the scheme
        always tolerates, so every write takes :meth:`place`'s O(1)
        path: the start is the hint (``offsets`` under intra-line WL,
        else the row's pointer); uncompressed writes start at 0.
        """
        pointer = self.state.metadata.start_pointer[rows]
        hint = pointer if offsets is None else offsets % LINE_BYTES
        starts = np.where(compressed, hint, 0)
        self.state.stats.window_slides += int(
            np.count_nonzero(compressed & (starts != pointer))
        )
        return starts

    def describe(self) -> str:
        config = self.state.config
        intra = (
            f"intra-line WL (counter limit {config.intra_counter_limit})"
            if config.use_intra_wear_leveling
            else "pointer-stable windows"
        )
        # The PAD only permutes which physical slot a line occupies, so
        # window search and rotation are the same under either backend.
        pad = ", PAD-permuted rows" if self._wolfram() else ""
        return f"placement: circular window fit/slide, {intra}{pad}"


class EncodingStage(Stage):
    """Write-energy-reducing line encoding (WIRE / restricted coset).

    Sits between placement and program: once the window is fixed, the
    payload is laid into the *logical* line image and the encoder
    re-chooses the coset selectors of the words the window fully
    covers.  Because every transform is a per-word XOR involution,
    words outside the window re-encode to exactly their stored cells,
    so the program stage's differential write stays inside the window -- with
    no encoder (``config.encoding == "none"``) this stage is a plain
    ``place_bytes`` and the write path is byte-identical to the
    pre-encoding engine.  Owns the ``encoding_flag_set_flips`` /
    ``encoding_flag_reset_flips`` / ``encoded_words`` counters.
    """

    name = "encoding"

    def build_target(
        self, physical: int, ctx: WriteContext, start: int, stored: np.ndarray
    ) -> np.ndarray:
        """The cell image to program for this write."""
        state = self.state
        encoder = state.encoder
        if encoder is None:
            return place_bytes(stored, ctx.payload, start)
        outcome = encoder.encode_payload(
            physical, stored, ctx.payload, start, ctx.size, ctx.compressed
        )
        stats = state.stats
        stats.encoding_flag_set_flips += outcome.flag_set_flips
        stats.encoding_flag_reset_flips += outcome.flag_reset_flips
        stats.encoded_words += outcome.encoded_words
        return outcome.target

    def decode_read(self, physical: int, bits: np.ndarray) -> np.ndarray:
        """Undo the line encoding on the read path (identity when off)."""
        encoder = self.state.encoder
        if encoder is None:
            return bits
        return encoder.decode(physical, bits)

    def describe(self) -> str:
        encoder = self.state.encoder
        if encoder is None:
            return "encoding: off (plain differential write)"
        return f"encoding: {encoder.describe()}"


class ProgramStage(Stage):
    """Issues the differential write restricted to the window.

    Owns the flip counters (``total_flips``, ``set_flips``,
    ``reset_flips``); the cell image comes from the
    :class:`EncodingStage` (a plain payload overlay when encoding is
    off).
    """

    name = "program"

    def __init__(self, state: EngineState) -> None:
        super().__init__(state)
        self.encoding = EncodingStage(state)

    def program(
        self, physical: int, ctx: WriteContext, start: int
    ) -> tuple[np.ndarray, int]:
        """Write the payload at ``start``; returns (target bits, flips)."""
        state = self.state
        stored = state.memory.read_bits(physical)
        # The target overlays the window on the stored cells, so the
        # differential write leaves every cell outside the window alone.
        target = self.encoding.build_target(physical, ctx, start, stored)
        outcome = state.memory.write(physical, target)
        state.stats.total_flips += outcome.programmed_flips
        state.stats.set_flips += outcome.set_flips
        state.stats.reset_flips += outcome.reset_flips
        worn = outcome.new_fault_positions.size
        if worn:
            ctx.line_faults += worn
        return target, outcome.programmed_flips

    def describe(self) -> str:
        return "program: chip-level differential write (window-masked)"


class CorrectionStage(Stage):
    """Post-write feasibility, metadata commit, and FREE-p remap.

    Re-checks the faults that fell inside the window after programming
    (cells can wear out *during* the write), commits the 13-bit line
    metadata and the scheme's repair state on success, and -- with the
    FREE-p extension enabled -- retires an unplaceable block to a spare
    line.  Owns the commit counters (``compressed_writes``,
    ``uncompressed_writes``, ``start_pointer_updates``,
    ``encoding_updates``) and ``remaps``.
    """

    name = "correction"

    def verify(self, physical: int, ctx: WriteContext, start: int) -> bool:
        """Whether the scheme can mask the window's post-write faults."""
        state = self.state
        if ctx.line_faults <= state.scheme.deterministic_capability:
            return True  # even with every fault inside the window
        faults_after = state.memory.fault_positions(physical)
        inside = faults_in_window(faults_after, start, ctx.size)
        return inside.size <= state.scheme.deterministic_capability or (
            inside.size <= state.scheme.fault_ceiling
            and state.scheme.can_correct(inside)
        )

    def commit(
        self, physical: int, ctx: WriteContext, start: int, target: np.ndarray
    ) -> None:
        """Update line metadata and repair state for a landed write."""
        self.commit_metadata(physical, ctx, start)
        self.commit_repairs(physical, ctx.size, start, target, ctx.line_faults)

    def commit_metadata(
        self, physical: int, ctx: WriteContext, start: int
    ) -> None:
        """The metadata half of the commit: 13-bit line state + counters.

        Split from :meth:`commit_repairs` so the batch scheduler can
        settle a wave's metadata (:meth:`commit_metadata_wave`) before
        a later wave's writes to the same lines decide their format.
        Nothing between the two halves reads the repair dict, so the
        split is unobservable; the serial path calls both back to back.
        """
        state = self.state
        metadata = state.metadata
        stats = state.stats
        new_pointer = start if ctx.compressed else 0
        if new_pointer != metadata.start_pointer.item(physical):
            metadata.start_pointer[physical] = new_pointer
            stats.start_pointer_updates += 1
        old_encoding = metadata.encoding.item(physical)
        new_encoding = (
            state.compressor.encode_metadata(ctx.result)
            if ctx.compressed and ctx.result is not None
            else old_encoding
        )
        if new_encoding != old_encoding or (
            ctx.size != metadata.stored_size.item(physical)
        ):
            metadata.encoding[physical] = new_encoding
            metadata.stored_size[physical] = ctx.size
            stats.encoding_updates += 1
        metadata.compressed[physical] = ctx.compressed
        if ctx.compressed:
            stats.compressed_writes += 1
        else:
            stats.uncompressed_writes += 1

    def commit_repairs(
        self, physical: int, size: int, start: int, target: np.ndarray,
        line_faults: int,
    ) -> None:
        """The repair half of the commit: refresh the scheme's state.

        ``line_faults`` must be the line's *post-write* stuck count (the
        scheme remembers the written value of every stuck cell inside
        the ``size``-byte window at ``start``).
        """
        state = self.state
        if line_faults:
            mask = window_mask(start, size)
            faulty = state.memory.faulty_mask(physical) & mask
            positions = np.flatnonzero(faulty)
            state.repairs[physical] = {
                int(position): int(target[position]) for position in positions
            }
            state.stats.repair_commits += 1
        elif state.repairs[physical]:
            state.repairs[physical] = {}

    # -- batched path ----------------------------------------------------

    def commit_metadata_wave(
        self, rows: np.ndarray, compressed: np.ndarray, sizes: np.ndarray,
        starts: np.ndarray, codes: np.ndarray | None,
    ) -> None:
        """:meth:`commit_metadata` for one wave of *distinct* rows.

        ``sizes`` and ``starts`` are the stored sizes (64 when raw) and
        window starts (0 when raw); ``codes`` the 5-bit encoding of each
        write's compression result (``None`` when compression is off).
        """
        state = self.state
        metadata = state.metadata
        stats = state.stats
        old_pointer = metadata.start_pointer[rows]
        old_encoding = metadata.encoding[rows]
        new_encoding = (
            old_encoding if codes is None
            else np.where(compressed, codes, old_encoding)
        )
        stats.start_pointer_updates += int(np.count_nonzero(starts != old_pointer))
        stats.encoding_updates += int(np.count_nonzero(
            (new_encoding != old_encoding) | (sizes != metadata.stored_size[rows])
        ))
        metadata.start_pointer[rows] = starts
        metadata.compressed[rows] = compressed
        metadata.stored_size[rows] = sizes
        metadata.encoding[rows] = new_encoding
        packed = int(np.count_nonzero(compressed))
        stats.compressed_writes += packed
        stats.uncompressed_writes += len(rows) - packed

    def commit_repairs_wave(
        self, rows: list[int], sizes: list[int], starts: list[int],
        targets: np.ndarray, line_faults: list[int] | None,
    ) -> None:
        """:meth:`commit_repairs` for one programmed wave.

        ``line_faults`` is ``None`` when no row of the wave has a stuck
        cell, else each row's post-write stuck count.
        """
        repairs = self.state.repairs
        if line_faults is None and not any(map(repairs.__getitem__, rows)):
            return  # the common case: nothing to refresh or clear
        for j, row in enumerate(rows):
            if line_faults is not None and line_faults[j]:
                self.commit_repairs(
                    row, sizes[j], starts[j], targets[j], line_faults[j]
                )
            elif repairs[row]:
                repairs[row] = {}

    def try_remap(self, physical: int) -> int | None:
        """FREE-p: retire an unplaceable block to a spare line."""
        state = self.state
        if state.remapper is None:
            return None
        spare = state.remapper.remap(physical, state.memory.faulty_mask(physical))
        if spare is None:
            return None
        state.stats.remaps += 1
        state.death_fault_counts[physical] = state.memory.fault_count(physical)
        return spare

    def describe(self) -> str:
        config = self.state.config
        # Under the WoLFRaM backend the spare pool is a PAD mechanism
        # (named by RemapStage.describe), not FREE-p.
        freep = (
            f" + FREE-p spares ({config.spare_line_fraction:.0%})"
            if config.spare_line_fraction and not self._wolfram()
            else ""
        )
        return f"correction: {self.state.scheme.name}{freep}"


class RemapStage(Stage):
    """Start-Gap address rotation and the dead-block life cycle.

    Maps logical lines through Start-Gap, reports gap moves that the
    facade must relocate, gates writes into dead blocks (revival is
    only allowed at gap-move checkpoints under Comp+WF), performs the
    fallback-to-compressed rescue, and marks/revives dead blocks.  Owns
    ``deaths`` and ``revivals``.

    Under ``wl_backend="wolfram"`` a
    :class:`~repro.wearleveling.wolfram.WolframPAD` takes Start-Gap's
    place through the same surface (``map`` / ``on_write`` /
    ``logical_of``); a reported
    :class:`~repro.wearleveling.wolfram.PadSwap` carries *two*
    relocation destinations where a gap move carries one, which the
    facade's ``movement.destinations`` loop absorbs.  Revival then
    happens at swap checkpoints.
    """

    name = "remap"

    def map_logical(self, logical: int) -> int:
        """Logical line -> physical line through Start-Gap + FREE-p."""
        state = self.state
        return state.resolve(state.start_gap.map(logical))

    def on_demand_write(self, logical: int):
        """Advance Start-Gap; returns a GapMovement when the gap moved."""
        return self.state.start_gap.on_write(logical)

    def blocked(self, physical: int, revival_allowed: bool) -> bool:
        """Whether a write into this block must be dropped (dead gate)."""
        state = self.state
        return bool(state.dead[physical]) and not (
            revival_allowed and state.config.use_dead_block_revival
        )

    def fallback_to_compressed(self, ctx: WriteContext) -> bool:
        """Rewrite the context to its compressed form when that rescues it.

        Under the advanced hard-error definition (the "F" in Comp+WF,
        Section III-A.3/4) a block is not given up while the
        *compressed* form still fits, even when the heuristic asked for
        uncompressed storage.  Comp and Comp+W lack this rescue: a
        write that cannot be stored in its chosen format kills the
        block, which is exactly why they lose lifetime on
        less-compressible/volatile data (Figure 10's bzip2/gcc columns).
        """
        state = self.state
        if not (
            state.config.use_dead_block_revival
            and not ctx.compressed
            and ctx.result is not None
            and ctx.result.size_bytes < LINE_BYTES
        ):
            return False
        ctx.compressed = True
        ctx.payload = ctx.result.payload
        ctx.size = ctx.result.size_bytes
        return True

    def mark_dead(self, physical: int) -> None:
        """Record a block death (no feasible placement, no spare)."""
        state = self.state
        if not state.dead[physical]:
            # A failed revival attempt re-kills an already-dead block;
            # only a live->dead transition changes the maintained count.
            state.dead_count += 1
        state.dead[physical] = True
        state.stats.deaths += 1
        state.death_fault_counts[physical] = state.memory.fault_count(physical)
        state.stats.lost_writes += 1

    def revive(self, physical: int) -> None:
        """Bring a dead block back into service after a landed write."""
        state = self.state
        if state.dead[physical]:
            state.dead_count -= 1
        state.dead[physical] = False
        state.stats.revivals += 1

    def describe(self) -> str:
        config = self.state.config
        if self._wolfram():
            spares = (
                f", PAD spare remap ({config.spare_line_fraction:.0%})"
                if self.state.remapper is not None
                else ""
            )
            revival = (
                "revival at swap checkpoints"
                if config.use_dead_block_revival
                else "no revival"
            )
            return (
                f"remap: WoLFRaM PAD (swap period={config.start_gap_psi}), "
                f"{revival}{spares}"
            )
        gap = (
            f"{config.start_gap_regions}-region Start-Gap"
            if config.start_gap_regions > 1
            else "Start-Gap"
        )
        revival = (
            "revival at gap-move checkpoints"
            if config.use_dead_block_revival
            else "no revival"
        )
        return f"remap: {gap} (psi={config.start_gap_psi}), {revival}"
