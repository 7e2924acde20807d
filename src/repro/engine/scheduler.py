"""Out-of-order, dependency-aware batch scheduler (wave execution).

PR 5's batched engine flushed the *entire* pending batch on every
Start-Gap move and every repeated write to one physical line, even
though only the affected row actually depends on the earlier write.
This module replaces those global flushes with per-row dependency
edges: a program-order scan partitions a request stream into *waves*
-- maximal sets of writes to distinct physical rows -- chains each
same-row collision to the next wave, schedules a placement
perturbation's relocations as ordinary dependency-tracked ops (only
the perturbed slots are affected -- one destination for a Start-Gap
move, two for a WoLFRaM PAD swap; see
:attr:`~repro.wearleveling.start_gap.GapMovement.destinations` and
:attr:`~repro.wearleveling.wolfram.PadSwap.destinations`),
and executes the waves back to back through the vectorized row kernel
while committing results in original program order.

The scan works on a whole request stream at once:

* **Mapping** -- the placement perturbation only counts writes, so its
  moves fall at positions known before anything executes.  A plain
  Start-Gap maps the whole stream with one array expression,
  ``(logical + start) % n`` plus one at or past the gap, and each move
  then re-points the one line it relocates for the requests after it;
  other backends (region Start-Gap, the WoLFRaM PAD) map request by
  request.  The logical shadow store is updated in bulk, so each
  relocation reads the data its line held at the move.
* **Waves** -- a write's wave is its row's occurrence rank among the
  scheduled writes before it (a stable argsort), and eligibility (see
  :meth:`_eligible`) and the dead-block gate are array compares.  The
  stream splits at the first write that fails them: the writes before
  it run as one *segment*, it runs through the ordinary serial
  pipeline (a *barrier*), and the rest is re-examined against the
  state the barrier left.

A segment runs through the stage methods, one wave at a time: one
``compress_batch`` gather for the segment, the rotation advance for
the segment, then per wave the Figure 8 table lookup, the window
placement, the metadata commit, one ``write_rows`` scatter and the
repair commit.  A wave's rows are distinct and its same-row
predecessors sit in earlier waves, so each wave reads exactly the
``sc``/``stored_size``/``start_pointer`` the serial loop would; every
scheduled op is proven to be in the zero-surprise regime, so
programming order within a wave cannot matter and the post-write
verify/rescue/remap/death machinery provably never fires.

Anything outside that regime -- a write near its row's endurance
limit, a relocation into a dead block (the Comp+WF revival
checkpoint) -- cuts a barrier.  The barrier causes are counted
separately (``barrier_gap_move`` / ``barrier_collision`` /
``barrier_ineligible_row``) in
:class:`~repro.engine.context.ControllerStats`.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat

import numpy as np

from ..core.window import LINE_BYTES
from ..wearleveling import StartGap
from .context import WriteResult
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

    def supported(self) -> bool:
        """Whether this engine composition can schedule out of order.

        Invariant checkers observe per-write state, line encoders keep
        per-write selector state the row kernel does not model, and MLC
        arrays have no vectorized row kernel; all of them take the
        controller's serial ``write`` loop.
        """
        return (
            not self.pipeline.invariants
            and self.state.encoder is None
            and hasattr(self.state.memory, "write_rows")
        )

    # -- the program-order scan ------------------------------------------

    def run(self, requests: list[tuple[int, bytes]]) -> list[WriteResult]:
        """Execute a stream of ``(line, data)`` demand writes.

        Returns results in request order, bit-identical to calling
        ``controller.write`` per request (payloads must already be
        validated; the controller does that up front).
        """
        if not requests:
            return []
        lines, datas = zip(*requests)
        index, slots, datas = self._map(lines, datas)
        results: list[WriteResult | None] = [None] * len(requests)
        self._schedule(index, slots, datas, results)
        self.state.stats.demand_writes += len(requests)
        return results

    def _map(self, logicals, datas):
        """Advance the placement perturbation over a request stream.

        Returns the program-order op stream as ``(index, slots, datas)``:
        each request's relocation writes (index -1) precede its demand
        write (its request index); ``slots`` are physical slots before
        FREE-p resolution.  Updates the logical shadow store.
        """
        start_gap = self.state.start_gap
        shadow = self.shadow
        n = len(logicals)
        #: ``(request index, destination slot, data)`` per relocation.
        relocations: list[tuple[int, int, bytes]] = []
        done = 0

        def relocate(position: int, movement) -> None:
            nonlocal done
            # The relocated lines carry the data written before the move.
            shadow.update(zip(logicals[done:position], datas[done:position]))
            done = position
            for destination in movement.destinations:
                logical = start_gap.logical_of(destination)
                data = None if logical is None else shadow.get(logical)
                if data is not None:
                    relocations.append((position, destination, data))

        if type(start_gap) is StartGap:
            logical = np.fromiter(logicals, dtype=np.intp, count=n)
            # One unsigned max catches negative lines too.
            if n and logical.view(np.uintp).max() >= start_gap.n_lines:
                start_gap.map(next(  # raises IndexError
                    line for line in logicals
                    if not 0 <= line < start_gap.n_lines
                ))
            slots = logical + start_gap.start
            slots %= start_gap.n_lines
            slots += slots >= start_gap.gap
            count = start_gap.write_count
            # A move falls on every psi-th demand write, before its map.
            # It moves the line at ``source`` to ``destination`` and
            # leaves every other line's slot as it was.
            for position in range(-(count + 1) % start_gap.psi, n, start_gap.psi):
                start_gap.write_count = count + position + 1
                movement = start_gap._move_gap()
                relocate(position, movement)
                later = slots[position:]
                later[later == movement.source] = movement.destination
            start_gap.write_count = count + n
        else:
            on_write = start_gap.on_write
            map_logical = start_gap.map
            mapped_slots = []
            for position, logical in enumerate(logicals):
                movement = on_write(logical)
                if movement is not None:
                    relocate(position, movement)
                mapped_slots.append(map_logical(logical))
            slots = np.array(mapped_slots, dtype=np.intp)
        shadow.update(zip(logicals[done:], datas[done:]))

        index = np.arange(n)
        if relocations:
            # Splice each relocation in before its request.
            parts: list[tuple] = []
            taken = 0
            for position, slot, data in relocations:
                parts.append((
                    index[taken:position], slots[taken:position],
                    datas[taken:position],
                ))
                parts.append(((-1,), (slot,), (data,)))
                taken = position
            parts.append((index[taken:], slots[taken:], datas[taken:]))
            indexes, slot_parts, data_parts = zip(*parts)
            index = np.concatenate(indexes)
            slots = np.concatenate(slot_parts)
            datas = [data for part in data_parts for data in part]
        return index, slots, datas

    def _schedule(self, index, slots, datas, results) -> None:
        """Split the op stream into segments and barriers; run them."""
        pipeline = self.pipeline
        state = self.state
        stats = state.stats
        memory = state.memory
        revival = state.config.use_dead_block_revival
        while len(index):
            rows = slots
            if state.remapper is not None:
                rows = np.array(
                    [state.resolve(row) for row in rows.tolist()], dtype=np.intp
                )
            relocation = index < 0
            # A live op's wave: how many live ops before it share its row.
            if state.dead_count:
                dead = state.dead[rows]
                live = ~dead
                waves = np.zeros(len(rows), dtype=np.intp)
                waves[live] = occurrence_ranks(rows[live])
            else:
                dead = None
                waves = occurrence_ranks(rows)
            blocked = memory.row_writes[rows] + waves >= memory.no_wear_limit[rows]
            if dead is not None:
                blocked &= live
                if revival:
                    # Comp+WF revival checkpoint: the dead-block gate
                    # and rescue machinery are serial-only.
                    blocked |= dead & relocation
            cut = len(rows)
            for position in np.flatnonzero(blocked).tolist():
                # A first write to a row near end of life may still be
                # provably uneventful (the exact at-risk scan).
                if dead is not None and dead[position] or waves[position] or (
                    not self._eligible(int(rows[position]), 0)
                ):
                    cut = position
                    break

            if dead is None:
                scheduled = slice(0, cut)
                batch = datas[:cut]
            else:
                scheduled = np.flatnonzero(live[:cut])
                batch = [datas[j] for j in scheduled.tolist()]
            if batch:
                self._execute(
                    index[scheduled], rows[scheduled], batch, waves[scheduled],
                    results,
                )
            stats.gap_move_writes += int(np.count_nonzero(relocation[:cut]))
            stats.batch_collision_edges += int(np.count_nonzero(waves[scheduled]))
            if dead is not None:
                # Into a dead block: demand writes never revive, and
                # relocations without revival are dropped -- lost,
                # serial-identically.
                for j in np.flatnonzero(dead[:cut]).tolist():
                    stats.lost_writes += 1
                    if index[j] >= 0:
                        results[index[j]] = WriteResult(
                            physical=int(rows[j]), compressed=False,
                            size_bytes=LINE_BYTES, window_start=0, flips=0,
                            lost=True,
                        )
            if cut == len(rows):
                return
            row = int(rows[cut])
            request = int(index[cut])
            if request < 0:
                stats.gap_move_writes += 1
                stats.barrier_gap_move += 1
                pipeline.write_line(row, datas[cut], revival_allowed=True)
            else:
                if waves[cut]:
                    stats.barrier_collision += 1
                else:
                    stats.barrier_ineligible_row += 1
                results[request] = pipeline.write_line(row, datas[cut])
            index, slots, datas = (
                index[cut + 1:], slots[cut + 1:], datas[cut + 1:]
            )

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

    def _execute(self, index, rows, datas, waves, results) -> None:
        """Run one segment through the stage methods, wave by wave."""
        pipeline = self.pipeline
        state = self.state
        stats = state.stats
        compress = pipeline.compress
        placement = pipeline.placement
        correction = pipeline.correction

        gathered = compress.gather(datas)
        offsets = placement.rotate_segment(rows)
        fault_counts = state.memory.fault_counts
        faults = fault_counts[rows] if fault_counts.any() else None
        if not waves.any():
            groups = [slice(None)]
            width = [len(rows)]
        else:
            width = np.bincount(waves).tolist()
            order = np.argsort(waves, kind="stable")
            ends = np.cumsum(width).tolist()
            groups = [order[end - size:end] for size, end in zip(width, ends)]
        for group in groups:
            wave_rows = rows[group]
            payloads, wave_format = datas, gathered
            if len(groups) > 1:
                picks = group.tolist()
                payloads = [datas[j] for j in picks]
                if gathered is not None:
                    wave_format = (
                        gathered[0][group], [gathered[1][j] for j in picks],
                        gathered[2][group],
                    )
            if wave_format is None:
                compressed = np.zeros(len(wave_rows), dtype=bool)
                kept = repeat(False)
                steps = repeat(0)
                sizes = np.full(len(wave_rows), LINE_BYTES)
                codes = None
            else:
                sizes, packed, codes = wave_format
                compressed, steps = compress.decide_wave(wave_rows, sizes)
                sizes = np.where(compressed, sizes, LINE_BYTES)
                kept = compressed.tolist()
                payloads = [
                    small if keep else raw
                    for small, raw, keep in zip(packed, payloads, kept)
                ]
                steps = steps.tolist()
            starts = placement.place_wave(
                wave_rows, compressed, None if offsets is None else offsets[group]
            )
            correction.commit_metadata_wave(
                wave_rows, compressed, sizes, starts, codes
            )
            rows_list = wave_rows.tolist()
            starts = starts.tolist()
            sizes = sizes.tolist()
            targets, flips, worn = pipeline.program_rows(wave_rows, payloads, starts)
            line_faults = None
            if faults is not None:
                line_faults = faults[group] + (0 if worn is None else worn)
            elif worn is not None:
                line_faults = worn
            correction.commit_repairs_wave(
                rows_list, sizes, starts, targets,
                None if line_faults is None else line_faults.tolist(),
            )
            made = map(_new_result, zip(
                rows_list, kept, sizes, starts, flips.tolist(),
                _FALSE, _FALSE, _FALSE, steps,
            ))
            requests = index[group].tolist()
            first = requests[0]
            if requests[-1] - first == len(requests) - 1 and min(requests) >= 0:
                results[first:first + len(requests)] = made
            else:
                for request, result in zip(requests, made):
                    if request >= 0:
                        results[request] = result

        stats.batch_waves += len(width)
        stats.batch_wave_ops += len(rows)
        widest = int(max(width))
        if widest > stats.batch_wave_width_max:
            stats.batch_wave_width_max = widest


#: ``WriteResult._make`` without its Python-level frame.
_new_result = partial(tuple.__new__, WriteResult)
#: The ``died``/``revived``/``lost`` fields of every batched result.
_FALSE = repeat(False)


def occurrence_ranks(keys: np.ndarray) -> np.ndarray:
    """How many earlier entries of ``keys`` equal each entry.

    ``[5, 7, 5, 5, 7] -> [0, 0, 1, 2, 1]``: a stable sort groups equal
    keys in their original order, and each entry's rank is its distance
    from the start of its group.
    """
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.zeros(len(keys), dtype=np.intp)  # all distinct
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    positions = np.arange(len(keys))
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    group_start = np.maximum.accumulate(np.where(first, positions, 0))
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = positions - group_start
    return ranks
