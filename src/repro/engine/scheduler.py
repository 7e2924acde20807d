"""Out-of-order, dependency-aware batch scheduler (wave execution).

PR 5's batched engine flushed the *entire* pending batch on every
Start-Gap move and every repeated write to one physical line, even
though only the affected row actually depends on the earlier write.
This module replaces those global flushes with per-row dependency
edges: a single program-order scan partitions a request stream into
*waves* -- maximal sets of writes to distinct physical rows -- chains
each same-row collision to the next wave, schedules a placement
perturbation's relocations as ordinary dependency-tracked ops (only
the perturbed slots are affected -- one destination for a Start-Gap
move, two for a WoLFRaM PAD swap; see
:attr:`~repro.wearleveling.start_gap.GapMovement.destinations` and
:attr:`~repro.wearleveling.wolfram.PadSwap.destinations`),
and executes the waves back to back through the vectorized row kernel
while committing results in original program order.

Bit-identity with the serial ``write`` loop rests on a split the
pipeline stages were refactored to expose:

* **Bookkeeping runs eagerly, in program order, during the scan** --
  Start-Gap register advances, the logical shadow store, demand/lost
  accounting, and the dead-block gate all settle exactly where the
  serial loop would settle them, so every later scan step observes
  serial-order state.
* **Format decisions and metadata commits run in program order at
  flush** -- one ``compress_batch`` gather (the content cache replays
  its probe/evict bookkeeping serially inside it), then per op: the
  Figure 8 decision, the placement hint, the window placement, the
  metadata half of the commit, and the intra-line rotation advance.  A
  collision successor therefore reads the ``sc``/``stored_size``/
  ``start_pointer`` its predecessor just committed, exactly as it
  would serially.
* **Only the cell programming runs out of order**, one vectorized
  ``write_rows`` scatter per wave -- and every scheduled op is proven
  to be in the zero-surprise regime first (see :meth:`_eligible`), so
  programming order within a wave cannot matter and the post-write
  verify/rescue/remap/death machinery provably never fires.

Anything outside that regime -- a write near its row's endurance
limit, a relocation into a dead block (the Comp+WF revival
checkpoint) -- cuts a *barrier*: the pending waves flush, the op runs
through the ordinary serial pipeline, and the scan resumes.  The
barrier causes are counted separately (``barrier_gap_move`` /
``barrier_collision`` / ``barrier_ineligible_row``) in
:class:`~repro.engine.context.ControllerStats`.
"""

from __future__ import annotations

from itertools import repeat

from ..core.window import LINE_BYTES
from ..pcm import FaultMode
from ..wearleveling import StartGap
from .context import WriteContext, WriteResult
from .pipeline import WritePipeline


class BatchScheduler:
    """Partitions demand-write streams into waves; executes them batched.

    One instance lives on each
    :class:`~repro.core.controller.CompressedPCMController`, sharing the
    controller's pipeline and logical shadow store.  The scheduler owns
    no simulation state of its own -- between :meth:`run` calls it is
    stateless -- so checkpoints and pickled controllers are unaffected.
    """

    def __init__(
        self, pipeline: WritePipeline, shadow: dict[int, bytes]
    ) -> None:
        self.pipeline = pipeline
        self.state = pipeline.state
        self.shadow = shadow
        #: ``(algorithm, encoding) -> packed 5-bit metadata`` memo; the
        #: packing is a pure function of those two fields, so flush
        #: loops skip the member scan in ``encode_metadata``.
        self._encoding_memo: dict[tuple[str, int], int] = {}

    def supported(self) -> bool:
        """Whether this engine composition can schedule out of order.

        Invariant checkers observe per-write state, line encoders keep
        per-write selector state the row kernel does not model, and MLC
        arrays / probabilistic fault modes have no vectorized row
        kernel; all of them take the controller's serial ``write`` loop.
        """
        memory = self.state.memory
        return (
            not self.pipeline.invariants
            and self.state.encoder is None
            and hasattr(memory, "write_rows")
            and memory.fault_mode is FaultMode.STUCK_AT_LAST
        )

    # -- the program-order scan ------------------------------------------

    def run(self, requests: list[tuple[int, bytes]]) -> list[WriteResult]:
        """Execute a stream of ``(line, data)`` demand writes.

        Returns results in request order, bit-identical to calling
        ``controller.write`` per request (payloads must already be
        validated; the controller does that up front).
        """
        pipeline = self.pipeline
        state = self.state
        stats = state.stats
        start_gap = state.start_gap
        shadow = self.shadow
        dead = state.dead
        local_of = state.local_of
        unsharded = state.address_range is None
        on_demand_write = start_gap.on_write
        start_gap_map = start_gap.map
        # The plain StartGap's per-write bookkeeping (on_write counter
        # advance + map arithmetic) is inlined in the loop; subclasses
        # and RegionStartGap keep the method calls.
        plain_gap = type(start_gap) is StartGap
        if plain_gap:
            sg_psi = start_gap.psi
            sg_n = start_gap.n_lines
            sg_start = start_gap.start
            sg_gap = start_gap.gap
        remapper = state.remapper
        resolve = state.resolve
        revival = state.config.use_dead_block_revival
        memory = state.memory
        row_writes = memory.row_writes
        no_wear_limit = memory.no_wear_limit
        # Amortized eligibility: while every row's write count stays
        # ``margin`` below the weakest wear bound, per-op integer
        # arithmetic proves the wear bound without touching numpy.
        # ``issued`` over-counts writes landed since the last refresh
        # (every request bumps it, landed or not), so the fast check is
        # conservative; when it trips, the bound is recomputed and the
        # exact per-row checks take over for that op.
        nwl_min = int(no_wear_limit.min())
        rw_bound = int(row_writes.max())
        rw_dirty = False
        issued = 0
        # Deaths only happen inside barrier write_line calls (eligible
        # ops are provably uneventful), so while no block is dead the
        # per-op dead-gate lookups can be skipped entirely.
        dead_any = bool(dead.any())

        results: list[WriteResult | None] = [None] * len(requests)
        #: Program-order segment: (result index or -1, row, data, wave).
        ops: list[tuple[int, int, bytes, int]] = []
        #: Pending scheduled writes per row == the next wave for that row.
        pending: dict[int, int] = {}
        pending_get = pending.get
        demand_writes = 0

        def flush() -> None:
            nonlocal rw_dirty
            if ops:
                self._execute(ops, results)
                ops.clear()
                pending.clear()
                rw_dirty = True

        for index, (line, data) in enumerate(requests):
            logical = line if unsharded else local_of(line)
            if plain_gap:
                write_count = start_gap.write_count + 1
                start_gap.write_count = write_count
                if write_count % sg_psi:
                    movement = None
                else:
                    movement = start_gap._move_gap()
                    sg_start = start_gap.start
                    sg_gap = start_gap.gap
            else:
                movement = on_demand_write(logical)
            if movement is not None:
                # Relocate the line(s) the placement perturbation
                # displaced -- one destination for a Start-Gap move, two
                # for a WoLFRaM PAD swap.  Only the perturbed slots are
                # affected; everything already scheduled keeps its
                # resolved row, so no flush is needed unless a
                # relocation itself is ineligible.
                for destination in movement.destinations:
                    reloc_logical = start_gap.logical_of(destination)
                    reloc_data = (
                        None if reloc_logical is None
                        else shadow.get(reloc_logical)
                    )
                    if reloc_data is None:
                        continue
                    stats.gap_move_writes += 1
                    issued += 1
                    row = resolve(destination)
                    if dead_any and dead[row]:
                        if revival:
                            # Comp+WF revival checkpoint: the dead-block
                            # gate and rescue machinery are serial-only.
                            stats.barrier_gap_move += 1
                            flush()
                            pipeline.write_line(
                                row, reloc_data, revival_allowed=True
                            )
                            rw_dirty = True
                            dead_any = True
                        else:
                            # Dropped, exactly like the serial path's
                            # blocked write_line (result discarded).
                            stats.lost_writes += 1
                    else:
                        wave = pending_get(row, 0)
                        if self._eligible(row, wave):
                            if wave:
                                stats.batch_collision_edges += 1
                            pending[row] = wave + 1
                            ops.append((-1, row, reloc_data, wave))
                        else:
                            stats.barrier_gap_move += 1
                            flush()
                            pipeline.write_line(
                                row, reloc_data, revival_allowed=True
                            )
                            rw_dirty = True
                            dead_any = True
            shadow[logical] = data
            if plain_gap and 0 <= logical < sg_n:
                row = (logical + sg_start) % sg_n
                if row >= sg_gap:
                    row += 1
            else:
                row = start_gap_map(logical)
            if remapper is not None:
                row = resolve(row)
            demand_writes += 1
            if dead_any and dead[row]:
                # Demand writes never revive: lost, serial-identically.
                stats.lost_writes += 1
                results[index] = WriteResult(
                    physical=row, compressed=False, size_bytes=LINE_BYTES,
                    window_start=0, flips=0, lost=True,
                )
                continue
            wave = pending_get(row, 0)
            issued += 1
            if rw_bound + issued + wave >= nwl_min:
                if rw_dirty:
                    rw_bound = int(row_writes.max())
                    rw_dirty = False
                issued = len(ops)  # scheduled, unlanded writes
            # _eligible's cheap wear bound, inlined (the at-risk fall
            # back is rare enough to leave behind the method call).
            if rw_bound + issued + wave < nwl_min or (
                row_writes[row] + wave < no_wear_limit[row]
            ) or (wave == 0 and self._eligible(row, 0)):
                if wave:
                    stats.batch_collision_edges += 1
                pending[row] = wave + 1
                ops.append((index, row, data, wave))
            else:
                if wave:
                    stats.barrier_collision += 1
                else:
                    stats.barrier_ineligible_row += 1
                flush()
                results[index] = pipeline.write_line(row, data)
                rw_dirty = True
                dead_any = True
        flush()
        stats.demand_writes += demand_writes
        return results

    def _eligible(self, row: int, pending: int) -> bool:
        """Whether a write to ``row`` can join the current segment.

        Eligible means *provably uneventful*: even after the row's
        ``pending`` already-scheduled writes land, this write cannot
        create a stuck cell, so placement's O(1) fast path applies,
        post-write verification cannot fail, and the write commits in
        exactly one program -- execution order against other rows is
        then unobservable.  The cheap per-row wear bound (write total
        under the weakest cell's endurance) usually proves it; a row
        near end of life falls back to an exact per-cell at-risk scan,
        which is only valid against *current* cell state -- so a row
        with pending writes that fails the wear bound is a barrier, not
        a scan candidate.
        """
        memory = self.state.memory
        if memory.row_writes[row] + pending < memory.no_wear_limit[row]:
            return True
        if pending:
            return False
        at_risk = int(
            ((memory.endurance[row] - memory.counts[row]) <= 1).sum()
        )
        return at_risk <= self.state.scheme.deterministic_capability

    # -- segment execution -----------------------------------------------

    def _execute(self, ops, results) -> None:
        """Flush one segment: decide/commit in program order, program in waves."""
        pipeline = self.pipeline
        state = self.state
        stats = state.stats
        compress = pipeline.compress
        correction = pipeline.correction

        # Phase B: one compression gather over the whole segment, in
        # program order (the content cache replays its probe/evict
        # bookkeeping serially inside compress_batch).
        if state.config.use_compression:
            compressions = state.compressor.compress_batch(
                [op[2] for op in ops]
            )
        else:
            compressions = repeat(None)

        # Phase C (program order): Figure 8 decision, placement hint,
        # window placement, metadata commit, intra-line rotation -- the
        # order-sensitive bookkeeping every same-row successor reads.
        # The compress/placement stage bodies are inlined here (their
        # per-op call overhead dominated the batched profile): this loop
        # is ``apply_decision`` + ``initial_hint`` + ``place`` +
        # ``commit_metadata`` + ``note_commit`` with the branches that
        # eligibility already decided folded away -- ``place`` always
        # takes its O(1) fast path (fault count within the scheme's
        # capability) and never returns None.
        waves: list[list] = []
        metadata = state.metadata
        fault_counts = state.memory.fault_counts
        intra_wl = state.intra_wl
        n_banks = state.n_banks
        heuristic = state.heuristic
        encode_metadata = state.compressor.encode_metadata
        encoding_memo = self._encoding_memo
        step_counts = stats.heuristic_steps
        if intra_wl is not None:
            # The rotation-counter advance (IntraLineWearLeveler.offset
            # + record_write) is inlined below; the bank index is
            # ``row % n_banks`` so the bounds check is statically true.
            intra_counters = intra_wl._counters
            intra_offsets = intra_wl._offsets
            intra_limit = intra_wl.counter_limit
        # Per-op counters accumulate in locals and publish once after
        # the loop -- nothing reads them mid-segment.
        sc_updates = window_slides = 0
        start_pointer_updates = encoding_updates = 0
        compressed_writes = uncompressed_writes = 0
        # Fault counts stay all-zero until some cell wears out (only
        # barrier writes and wave programming can do that), so the
        # common case skips the per-op numpy lookup.
        have_faults = bool(fault_counts.any())
        for (index, row, data, wave), result in zip(ops, compressions):
            ctx = WriteContext(row, data)
            meta = metadata[row]
            compressed = False
            if result is not None:
                # _decide, inlined: Figure 8 (heuristic mutates meta.sc).
                size = result.size_bytes
                if size < LINE_BYTES:
                    if heuristic is None:
                        compressed = True
                    else:
                        sc_before = meta.sc
                        decision = heuristic.decide(meta, size)
                        sc_updates += meta.sc != sc_before
                        step = decision.step
                        step_counts[step] = step_counts.get(step, 0) + 1
                        compressed = decision.compress
                        ctx.step = step
                ctx.compressed = compressed
                ctx.result = result
            if compressed:
                ctx.payload = result.payload
                ctx.size = size
                if intra_wl is not None:
                    hint = intra_offsets[row % n_banks]
                else:
                    hint = meta.start_pointer
                ctx.hint = hint
                start = hint % LINE_BYTES
                if start != meta.start_pointer:
                    window_slides += 1
                new_pointer = start
                key = (result.algorithm, result.encoding)
                new_encoding = encoding_memo.get(key)
                if new_encoding is None:
                    new_encoding = encode_metadata(result)
                    encoding_memo[key] = new_encoding
            else:
                ctx.payload = data
                start = 0
                new_pointer = 0
                new_encoding = meta.encoding
            if have_faults:
                ctx.line_faults = int(fault_counts[row])
            # commit_metadata, inlined: 13-bit line state + counters.
            start_pointer_updates += new_pointer != meta.start_pointer
            encoding_updates += (
                new_encoding != meta.encoding or ctx.size != meta.stored_size
            )
            meta.start_pointer = new_pointer
            meta.compressed = compressed
            meta.stored_size = ctx.size
            meta.encoding = new_encoding
            if compressed:
                compressed_writes += 1
            else:
                uncompressed_writes += 1
            if intra_wl is not None:
                bank = row % n_banks
                count = intra_counters[bank] + 1
                if count < intra_limit:
                    intra_counters[bank] = count
                else:
                    intra_counters[bank] = 0
                    intra_offsets[bank] = (
                        intra_offsets[bank] + intra_wl.step_bytes
                    ) % intra_wl.line_bytes
                    intra_wl.rotations += 1
            if wave == len(waves):
                waves.append([])
            waves[wave].append((index, ctx, start))
        stats.sc_updates += sc_updates
        stats.window_slides += window_slides
        stats.start_pointer_updates += start_pointer_updates
        stats.encoding_updates += encoding_updates
        stats.compressed_writes += compressed_writes
        stats.uncompressed_writes += uncompressed_writes
        compress.mirror_cache_counters()

        # Phase D: program the waves oldest first.  Rows within a wave
        # are distinct by construction (a same-row successor always
        # lands in a later wave), so each wave is one write_rows
        # scatter; same-row repair commits replay in wave == program
        # order.
        stats.batch_waves += len(waves)
        widest = 0
        commit_repairs = correction.commit_repairs
        program_rows = pipeline.program_rows
        repairs = state.repairs
        for bucket in waves:
            stats.batch_wave_ops += len(bucket)
            if len(bucket) > widest:
                widest = len(bucket)
            targets, flips, worn = program_rows(
                [(ctx, start) for _, ctx, start in bucket]
            )
            for j, (index, ctx, start) in enumerate(bucket):
                row = ctx.physical
                if worn is not None and worn[j]:
                    ctx.line_faults += worn[j]
                # commit_repairs' fault-free fast path, inlined (skips
                # the row slice); faulted lines take the real refresh.
                if ctx.line_faults:
                    commit_repairs(row, ctx, start, targets[j])
                elif repairs[row]:
                    repairs[row] = {}
                if index >= 0:
                    results[index] = WriteResult(
                        row, ctx.compressed, ctx.size, start, flips[j],
                        False, False, False, ctx.step,
                    )
        if widest > stats.batch_wave_width_max:
            stats.batch_wave_width_max = widest
