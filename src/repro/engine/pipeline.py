"""The write pipeline: sequences the stages over one write (Figure 4).

The pipeline owns the control flow the 2017 controller had fused into
one method: the place -> program -> verify loop that absorbs cells
wearing out *during* a write, the fallback-to-compressed rescue, the
FREE-p remap-to-spare, and death/revival bookkeeping.  The stages own
the mechanisms; the pipeline owns only their sequencing, so swapping a
stage (a different compressor, correction scheme, or wear-leveler)
never touches this file.
"""

from __future__ import annotations

import numpy as np

from ..core.window import LINE_BYTES
from ..pcm import FaultMode
from .context import EngineState, WriteContext, WriteResult
from .stages import (
    CompressStage,
    CorrectionStage,
    EncodingStage,
    PlacementStage,
    ProgramStage,
    RemapStage,
    Stage,
)


class WritePipeline:
    """Runs one write through compress/placement/program/correction/remap."""

    def __init__(
        self,
        state: EngineState,
        compress: CompressStage | None = None,
        placement: PlacementStage | None = None,
        program: ProgramStage | None = None,
        correction: CorrectionStage | None = None,
        remap: RemapStage | None = None,
        invariants: tuple = (),
    ) -> None:
        self.state = state
        self.compress = compress or CompressStage(state)
        self.placement = placement or PlacementStage(state)
        self.program = program or ProgramStage(state)
        # The program stage owns its encoding sub-stage; surface it so
        # the stage listing and the controller's read path reach it.
        self.encoding: EncodingStage = self.program.encoding
        self.correction = correction or CorrectionStage(state)
        self.remap = remap or RemapStage(state)
        #: Debug-mode checkers (see :mod:`repro.validate.invariants`):
        #: each is called as ``checker.after_write(state, result)`` on
        #: every completed write.  Empty (the default) costs nothing.
        self.invariants = tuple(invariants)

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The stage list in execution order."""
        return (
            self.compress,
            self.placement,
            self.encoding,
            self.program,
            self.correction,
            self.remap,
        )

    def describe(self) -> list[str]:
        """One human-readable line per stage (``systems`` listing)."""
        return [stage.describe() for stage in self.stages]

    # -- write path ------------------------------------------------------

    def write_line(
        self, physical: int, data: bytes, revival_allowed: bool = False
    ) -> WriteResult:
        """Run one write-back through the full stage sequence."""
        result = self._run_write(physical, data, revival_allowed)
        for checker in self.invariants:
            checker.after_write(self.state, result)
        return result

    def _run_write(
        self, physical: int, data: bytes, revival_allowed: bool
    ) -> WriteResult:
        state = self.state
        if self.remap.blocked(physical, revival_allowed):
            state.stats.lost_writes += 1
            return WriteResult(
                physical=physical, compressed=False, size_bytes=LINE_BYTES,
                window_start=0, flips=0, lost=True,
            )

        was_dead = bool(state.dead[physical])
        ctx = WriteContext(
            physical=physical, data=data,
            revival_allowed=revival_allowed, was_dead=was_dead,
        )
        self.compress.run(ctx)
        ctx.hint = self.placement.initial_hint(physical, ctx)

        result = self._attempt(physical, ctx)
        if result.died:
            return result
        if was_dead:
            self.remap.revive(physical)
            result = result._replace(revived=True)
        self.placement.note_commit(physical)
        return result

    # -- batched write path ----------------------------------------------

    def step_batch(
        self, requests: list[tuple[int, bytes]]
    ) -> list[WriteResult]:
        """Run K write-backs to *distinct* physical lines as one batch.

        Bit-identical to calling :meth:`write_line` on each request in
        order (``revival_allowed=False``, the demand-write setting):
        the compress stage runs once over the whole batch (one cache
        gather), then rows whose line provably cannot exceed the
        correction scheme's deterministic capability this write -- the
        overwhelmingly common case -- take a vectorized
        place/program/commit across the ``(K, 512)`` cell matrix, with
        one differential-write scatter into the bank arrays.  Rows that
        fail the precheck (or hit the rescue/remap/death machinery) run
        the ordinary serial loop at their in-batch position, so every
        cross-write ordering effect (cache LRU, intra-line rotation,
        FREE-p spare consumption) is preserved exactly.
        """
        if not requests:
            return []
        state = self.state
        memory = state.memory
        if (
            self.invariants
            or state.encoder is not None
            or len(requests) < 2
            or not hasattr(memory, "write_rows")
            or memory.fault_mode is not FaultMode.STUCK_AT_LAST
        ):
            # Invariant checkers observe per-write state; line encoders
            # keep per-write selector state the row kernel does not
            # model; MLC arrays and probabilistic fault modes have no
            # vectorized row kernel.
            return [
                self.write_line(physical, data) for physical, data in requests
            ]
        seen: set[int] = set()
        for physical, _ in requests:
            if physical in seen:
                raise ValueError(
                    "step_batch requests must target distinct physical lines"
                )
            seen.add(physical)

        results: list[WriteResult | None] = [None] * len(requests)
        live: list[int] = []
        ctxs: list[WriteContext] = []
        for index, (physical, data) in enumerate(requests):
            if self.remap.blocked(physical, False):
                state.stats.lost_writes += 1
                results[index] = WriteResult(
                    physical=physical, compressed=False,
                    size_bytes=LINE_BYTES, window_start=0, flips=0, lost=True,
                )
            else:
                live.append(index)
                ctxs.append(WriteContext(physical=physical, data=data))
        if not ctxs:
            return results

        self.compress.run_batch(ctxs)

        # A row is batch-eligible when even the worst case -- every
        # at-risk cell (within 1 program of its endurance limit, or
        # already stuck) failing inside the window -- stays within the
        # scheme's deterministic capability: placement's O(1) fast path
        # applies and post-write verification cannot fail, so the write
        # is guaranteed to commit in one program.  The bank's O(K)
        # per-row wear bound usually proves every row has zero at-risk
        # cells; only once a row nears its weakest cell's limit does
        # the exact per-cell scan run.
        rows = np.array([ctx.physical for ctx in ctxs], dtype=np.intp)
        if bool((memory.row_writes[rows] < memory.no_wear_limit[rows]).all()):
            eligible = None
        else:
            at_risk = (
                (memory.endurance[rows] - memory.counts[rows]) <= 1
            ).sum(axis=1)
            eligible = (
                at_risk <= state.scheme.deterministic_capability
            ).tolist()

        fast: list[tuple[int, WriteContext, int]] = []
        for position, index in enumerate(live):
            ctx = ctxs[position]
            if eligible is None or eligible[position]:
                ctx.hint = self.placement.initial_hint(ctx.physical, ctx)
                start = self.placement.place(ctx.physical, ctx)
                # Guaranteed commit: advance the intra-line rotation
                # now so later rows in the scan see serial-order hints.
                self.placement.note_commit(ctx.physical)
                fast.append((index, ctx, start))
            else:
                results[index] = self._finish_serial(ctx)

        if fast:
            targets, flips, new_faults = self.program_rows(
                [(ctx, start) for _, ctx, start in fast]
            )
            for j, (index, ctx, start) in enumerate(fast):
                if new_faults is not None and new_faults[j]:
                    ctx.line_faults += new_faults[j]
                self.correction.commit(ctx.physical, ctx, start, targets[j])
                results[index] = WriteResult(
                    physical=ctx.physical, compressed=ctx.compressed,
                    size_bytes=ctx.size, window_start=start,
                    flips=flips[j], heuristic_step=ctx.step,
                )
        return results

    def program_rows(
        self,
        entries: list[tuple[WriteContext, int]],
        write_rows=None,
    ) -> tuple[np.ndarray, list[int], list[int] | None]:
        """Program K writes to *distinct* rows as one vectorized pass.

        ``entries`` pairs each context (storage format already fixed)
        with its placed window start.  Overlays every payload on a copy
        of its stored row (exactly ``place_bytes``, row-wise, done on
        the wave's packed bytes; cells outside each window keep their
        stored value, so the differential write needs no update mask),
        issues a single ``write_rows`` scatter, and accounts the flip
        counters.
        Returns ``(targets, flips, worn)`` aligned with ``entries``;
        ``worn`` is None when no cell wore out.  Shared by
        :meth:`step_batch` and the out-of-order batch scheduler's wave
        execution; ``write_rows`` overrides the bank kernel (the
        bank-parallel executor passes its fan-out dispatch here).
        """
        state = self.state
        memory = state.memory
        rows = np.array([ctx.physical for ctx, _ in entries], dtype=np.intp)
        # Overlay at byte level: pack the stored rows once, lay each
        # payload into its (possibly wrapping) byte window of the
        # packed wave, and unpack the whole wave once.
        packed = bytearray(
            np.packbits(memory.stored[rows], axis=1, bitorder="little")
        )
        offset = 0
        for ctx, start in entries:
            payload = ctx.payload
            end = start + len(payload)
            if end <= LINE_BYTES:
                packed[offset + start : offset + end] = payload
            else:  # wrapping window
                split = LINE_BYTES - start
                packed[offset + start : offset + LINE_BYTES] = payload[:split]
                packed[offset : offset + end - LINE_BYTES] = payload[split:]
            offset += LINE_BYTES
        targets = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(-1, LINE_BYTES),
            axis=1, bitorder="little",
        )
        kernel = write_rows if write_rows is not None else memory.write_rows
        programmed, set_flips, worn = kernel(rows, targets)
        total = int(programmed.sum())
        sets = int(set_flips.sum())
        stats = state.stats
        stats.total_flips += total
        stats.set_flips += sets
        stats.reset_flips += total - sets
        return targets, programmed.tolist(), (
            worn.tolist() if worn.any() else None
        )

    def _finish_serial(self, ctx: WriteContext) -> WriteResult:
        """Finish one batch row through the ordinary serial machinery.

        The context's storage format is already fixed (the batched
        compress stage ran), so this is :meth:`_run_write` minus the
        dead gate and compress call; batch rows are demand writes into
        live blocks, so there is no revival to record either.
        """
        physical = ctx.physical
        ctx.hint = self.placement.initial_hint(physical, ctx)
        result = self._attempt(physical, ctx)
        if result.died:
            return result
        self.placement.note_commit(physical)
        return result

    def _attempt(self, physical: int, ctx: WriteContext) -> WriteResult:
        """The place/program/verify loop for one physical target.

        Recurses (mirroring the write-path state machine) when the
        remap stage rewrites the context to its compressed form or the
        correction stage retires the block to a FREE-p spare.  Flips
        are accounted per target: a rescue's result reports only the
        flips spent on the line it finally landed on.
        """
        flips = 0
        for _attempt in range(LINE_BYTES):
            start = self.placement.place(physical, ctx)
            if start is None:
                break
            target, programmed = self.program.program(physical, ctx, start)
            flips += programmed
            if self.correction.verify(physical, ctx, start):
                self.correction.commit(physical, ctx, start, target)
                return WriteResult(
                    physical=physical, compressed=ctx.compressed,
                    size_bytes=ctx.size, window_start=start, flips=flips,
                    heuristic_step=ctx.step,
                )
            # New faults broke this placement; slide past it and retry.
            ctx.hint = (start + 1) % LINE_BYTES

        # No feasible placement for this payload: try the Comp+WF
        # compressed-form rescue, then a FREE-p spare, then give up.
        if self.remap.fallback_to_compressed(ctx):
            return self._attempt(physical, ctx)
        spare = self.correction.try_remap(physical)
        if spare is not None:
            return self._attempt(spare, ctx)

        self.remap.mark_dead(physical)
        return WriteResult(
            physical=physical, compressed=ctx.compressed, size_bytes=ctx.size,
            window_start=0, flips=flips, died=True, lost=True,
            heuristic_step=ctx.step,
        )
