"""The write pipeline: sequences the stages over one write (Figure 4).

The pipeline owns the control flow the 2017 controller had fused into
one method: the place -> program -> verify loop that absorbs cells
wearing out *during* a write, the fallback-to-compressed rescue, the
FREE-p remap-to-spare, and death/revival bookkeeping.  The stages own
the mechanisms; the pipeline owns only their sequencing, so changing a
mechanism (a different compressor, correction scheme, or wear-leveler)
never touches this file.
"""

from __future__ import annotations

import numpy as np

from ..core.window import LINE_BYTES
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

    def __init__(self, state: EngineState, invariants: tuple = ()) -> None:
        self.state = state
        self.compress = CompressStage(state)
        self.placement = PlacementStage(state)
        self.program = ProgramStage(state)
        # The program stage owns its encoding sub-stage; surface it so
        # the stage listing and the controller's read path reach it.
        self.encoding: EncodingStage = self.program.encoding
        self.correction = CorrectionStage(state)
        self.remap = RemapStage(state)
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

    def program_rows(
        self, rows: np.ndarray, payloads: list[bytes], starts: list[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Program K writes to *distinct* rows as one vectorized pass.

        ``payloads[j]`` (storage format already fixed) lands at window
        start ``starts[j]`` of row ``rows[j]``.  Overlays every payload
        on a copy of its stored row (exactly ``place_bytes``, row-wise,
        done on the wave's packed bytes; cells outside each window keep
        their stored value, so the differential write needs no update
        mask), issues a single ``write_rows`` scatter, and accounts the
        flip counters.  Returns ``(targets, flips, worn)`` aligned with
        ``rows``; ``worn`` is None when no cell wore out.  The batch
        scheduler programs each of its waves through here.
        """
        state = self.state
        memory = state.memory
        # Overlay at byte level: pack the stored rows once, lay each
        # payload into its (possibly wrapping) byte window of the
        # packed wave, and unpack the whole wave once.
        packed = bytearray(
            np.packbits(memory.stored[rows], axis=1, bitorder="little")
        )
        offset = 0
        for payload, start in zip(payloads, starts):
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
        programmed, set_flips, worn = memory.write_rows(rows, targets)
        total = int(programmed.sum())
        sets = int(set_flips.sum())
        stats = state.stats
        stats.total_flips += total
        stats.set_flips += sets
        stats.reset_flips += total - sets
        return targets, programmed, worn if worn.any() else None

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
