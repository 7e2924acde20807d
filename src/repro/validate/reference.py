"""A deliberately slow, loop-based oracle of the full write path.

:class:`ReferenceModel` re-implements the paper's controller --
compress -> window placement -> differential write -> correction ->
wear-leveling -- from the text of Section III, independently of
:mod:`repro.engine`: no stage objects, no numpy arrays, no maintained
fault masks or caches.  Every quantity the fast pipeline keeps
incrementally (fault counts, fault positions, dead totals) is recomputed
here from first principles with explicit Python loops, so the two
implementations share no failure modes short of a misreading of the
paper itself.

Two pieces are deliberately shared and documented as such:

* the **correction schemes** (:mod:`repro.correction`): ECP/SAFER/Aegis
  feasibility is spec-level combinatorial logic with its own exhaustive
  unit tests, and duplicating it would test our transcription of a
  truth table, not the write path;
* the **reference compressors** (:mod:`repro.validate.refcompress`):
  frozen pre-vectorization encoders, pinned byte-identical to the
  production kernels by ``tests/compression/test_vectorized_equivalence.py``.

Everything else -- Start-Gap, the WoLFRaM programmable address decoder
(``config.wl_backend == "wolfram"``), intra-line rotation, FREE-p / PAD
spares, Figure 8, the window search, the cell wear model -- is
re-derived.

Scope: SLC banks of stuck-at-last cells, as the controller builds them.
:meth:`ReferenceModel.from_controller` raises ``NotImplementedError``
for MLC arrays (the oracle's cell loop models single-bit cells).
"""

from __future__ import annotations

from .refcompress import reference_best_compress, reference_encode_metadata

LINE_BYTES = 64
LINE_BITS = 512


def _bytes_to_bits(data: bytes) -> list[int]:
    """Little-endian bit order: cell ``i`` is bit ``i % 8`` of byte ``i // 8``."""
    bits = []
    for byte in data:
        for bit in range(8):
            bits.append((byte >> bit) & 1)
    return bits


def _bits_to_bytes(bits: list[int]) -> bytes:
    out = bytearray(len(bits) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


def _window_positions(start_byte: int, size_bytes: int) -> list[int]:
    """Cell positions of a (possibly wrapping) byte window, in layout order."""
    positions = []
    for step in range(size_bytes):
        byte = (start_byte + step) % LINE_BYTES
        for bit in range(8):
            positions.append(byte * 8 + bit)
    return positions


class _RefMeta:
    """Per-line metadata: 6-bit pointer, 5-bit encoding, 2-bit SC, flag."""

    __slots__ = ("start_pointer", "encoding", "sc", "compressed", "stored_size")

    def __init__(self) -> None:
        self.start_pointer = 0
        self.encoding = 0
        self.sc = 0
        self.compressed = False
        self.stored_size = LINE_BYTES

    def as_tuple(self) -> tuple:
        return (
            self.start_pointer,
            self.encoding,
            self.sc,
            self.compressed,
            self.stored_size,
        )


class _RefLine:
    """One 512-cell line: stored values, program counts, endurance."""

    __slots__ = ("stored", "counts", "endurance")

    def __init__(self, endurance: list[int]) -> None:
        if len(endurance) != LINE_BITS:
            raise ValueError(f"endurance must have {LINE_BITS} entries")
        self.stored = [0] * LINE_BITS
        self.counts = [0] * LINE_BITS
        self.endurance = [int(limit) for limit in endurance]

    def is_faulty(self, position: int) -> bool:
        return self.counts[position] >= self.endurance[position]

    def fault_positions(self) -> list[int]:
        return [pos for pos in range(LINE_BITS) if self.is_faulty(pos)]

    def fault_count(self) -> int:
        return sum(
            1 for pos in range(LINE_BITS) if self.counts[pos] >= self.endurance[pos]
        )


class _RefStartGap:
    """Start-Gap registers re-derived from the MICRO 2009 formulation."""

    def __init__(self, n_lines: int, psi: int) -> None:
        self.n_lines = n_lines
        self.psi = psi
        self.start = 0
        self.gap = n_lines
        self.write_count = 0
        self.gap_moves = 0

    @property
    def physical_lines(self) -> int:
        return self.n_lines + 1

    def map(self, logical: int) -> int:
        physical = (logical + self.start) % self.n_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def logical_of(self, physical: int) -> int | None:
        if physical == self.gap:
            return None
        adjusted = physical - 1 if physical > self.gap else physical
        return (adjusted - self.start) % self.n_lines

    def on_write(self, logical: int | None = None) -> tuple[int, int] | None:
        """Returns (source, destination) every psi-th write, else None."""
        del logical
        self.write_count += 1
        if self.write_count % self.psi != 0:
            return None
        self.gap_moves += 1
        if self.gap == 0:
            movement = (self.n_lines, 0)
            self.gap = self.n_lines
            self.start = (self.start + 1) % self.n_lines
            return movement
        movement = (self.gap - 1, self.gap)
        self.gap -= 1
        return movement

    def registers(self) -> tuple[int, int, int, int]:
        return (self.start, self.gap, self.write_count, self.gap_moves)


class _RefRegionStartGap:
    """Per-region Start-Gap instances over contiguous line ranges."""

    def __init__(self, n_lines: int, psi: int, regions: int) -> None:
        self.n_lines = n_lines
        self.regions = regions
        base = n_lines // regions
        remainder = n_lines % regions
        self._sizes = [base + (1 if index < remainder else 0) for index in range(regions)]
        self._gaps = [_RefStartGap(size, psi) for size in self._sizes]
        self._logical_bases = []
        self._physical_bases = []
        logical = physical = 0
        for size in self._sizes:
            self._logical_bases.append(logical)
            self._physical_bases.append(physical)
            logical += size
            physical += size + 1

    @property
    def physical_lines(self) -> int:
        return self.n_lines + self.regions

    def _region_of_logical(self, logical: int) -> int:
        for index in range(self.regions):
            if logical < self._logical_bases[index] + self._sizes[index]:
                return index
        raise IndexError(f"logical line {logical} out of range")

    def _region_of_physical(self, physical: int) -> int:
        for index in range(self.regions):
            if physical < self._physical_bases[index] + self._sizes[index] + 1:
                return index
        raise IndexError(f"physical slot {physical} out of range")

    def map(self, logical: int) -> int:
        region = self._region_of_logical(logical)
        inner = logical - self._logical_bases[region]
        return self._physical_bases[region] + self._gaps[region].map(inner)

    def logical_of(self, physical: int) -> int | None:
        region = self._region_of_physical(physical)
        inner = physical - self._physical_bases[region]
        result = self._gaps[region].logical_of(inner)
        if result is None:
            return None
        return self._logical_bases[region] + result

    def on_write(self, logical: int) -> tuple[int, int] | None:
        region = self._region_of_logical(logical)
        movement = self._gaps[region].on_write()
        if movement is None:
            return None
        base = self._physical_bases[region]
        return (base + movement[0], base + movement[1])

    def registers(self) -> tuple:
        return tuple(gap.registers() for gap in self._gaps)


class _RefIntraWL:
    """Per-bank saturating write counters driving rotation offsets."""

    def __init__(self, n_banks: int, counter_limit: int) -> None:
        self.counter_limit = counter_limit
        self.counters = [0] * n_banks
        self.offsets = [0] * n_banks
        self.rotations = 0

    def offset(self, bank: int) -> int:
        return self.offsets[bank]

    def record_write(self, bank: int) -> bool:
        self.counters[bank] += 1
        if self.counters[bank] < self.counter_limit:
            return False
        self.counters[bank] = 0
        self.offsets[bank] = (self.offsets[bank] + 1) % LINE_BYTES
        self.rotations += 1
        return True

    def registers(self) -> tuple:
        return (tuple(self.counters), tuple(self.offsets), self.rotations)


class _RefWolframPAD:
    """WoLFRaM programmable address decoder, re-derived from the paper.

    Deliberately different bookkeeping from the production
    :class:`~repro.wearleveling.wolfram.WolframPAD`: only the forward
    table (logical -> slot) is kept, as a dict, and the inverse mapping
    is recovered by scanning it -- no paired inverse list to drift out
    of sync.  A swap movement is reported as ``("pad", slot_a, slot_b)``
    so the model's gap-move handler can tell it from a Start-Gap
    ``(source, destination)`` tuple.
    """

    def __init__(self, n_lines: int, period: int) -> None:
        self.n_lines = n_lines
        self.period = period
        self.slot_of = {logical: logical for logical in range(n_lines)}
        self.partner = 0
        self.write_count = 0
        self.swaps = 0

    @property
    def physical_lines(self) -> int:
        return self.n_lines

    def map(self, logical: int) -> int:
        return self.slot_of[logical]

    def logical_of(self, physical: int) -> int:
        for logical, slot in self.slot_of.items():
            if slot == physical:
                return logical
        raise IndexError(f"physical slot {physical} has no owner")

    def on_write(self, logical: int) -> tuple | None:
        self.write_count += 1
        if self.write_count % self.period != 0 or self.n_lines < 2:
            return None
        slot_a = self.slot_of[logical]
        slot_b = self.partner
        self.partner = (self.partner + 1) % self.n_lines
        if slot_b == slot_a:
            slot_b = self.partner
            self.partner = (self.partner + 1) % self.n_lines
        owner_a = self.logical_of(slot_a)
        owner_b = self.logical_of(slot_b)
        self.slot_of[owner_a] = slot_b
        self.slot_of[owner_b] = slot_a
        self.swaps += 1
        return ("pad", slot_a, slot_b)

    def registers(self) -> tuple:
        forward = tuple(self.slot_of[logical] for logical in range(self.n_lines))
        return ("pad", forward, self.partner, self.write_count, self.swaps)


class _RefPadRemapper:
    """Decoder-table spare pool: the remap ignores the dead line's health.

    The PAD redirect lives in the decoder table, not in the dead line's
    surviving cells, so -- unlike :class:`_RefFreeP` -- there is no
    pointer-capacity precondition.  ``remap`` returns ``(spare,
    rewrites)`` so the model can charge the table-write energy counter
    (one entry plus one per collapsed chain link).
    """

    def __init__(self, spare_lines: list[int]) -> None:
        self.free_spares = list(spare_lines)
        self.remap_table: dict[int, int] = {}
        self.remaps_performed = 0

    def resolve(self, physical: int) -> int:
        seen = set()
        while physical in self.remap_table:
            if physical in seen:
                raise RuntimeError("remap cycle detected")
            seen.add(physical)
            physical = self.remap_table[physical]
        return physical

    def remap(self, dead_physical: int) -> tuple[int, int] | None:
        if not self.free_spares:
            return None
        spare = self.free_spares.pop(0)
        self.remap_table[dead_physical] = spare
        rewrites = 1
        for source, target in list(self.remap_table.items()):
            if target == dead_physical:
                self.remap_table[source] = spare
                rewrites += 1
        self.remaps_performed += 1
        return spare, rewrites


class _RefFreeP:
    """FREE-p spare pool with chain-collapsing remap pointers."""

    def __init__(self, spare_lines: list[int], pointer_bits: int, replication: int = 7) -> None:
        self.free_spares = list(spare_lines)
        self.pointer_cells_needed = pointer_bits * replication
        self.remap_table: dict[int, int] = {}
        self.remaps_performed = 0

    def resolve(self, physical: int) -> int:
        seen = set()
        while physical in self.remap_table:
            if physical in seen:
                raise RuntimeError("remap cycle detected")
            seen.add(physical)
            physical = self.remap_table[physical]
        return physical

    def remap(self, dead_physical: int, healthy_cells: int) -> int | None:
        if not self.free_spares:
            return None
        if healthy_cells < self.pointer_cells_needed:
            return None
        spare = self.free_spares.pop(0)
        self.remap_table[dead_physical] = spare
        for source, target in list(self.remap_table.items()):
            if target == dead_physical:
                self.remap_table[source] = spare
        self.remaps_performed += 1
        return spare


#: ControllerStats counters the oracle tracks (the compression-cache
#: mirror counters are fast-path implementation detail, not semantics).
STAT_FIELDS = (
    "demand_writes",
    "gap_move_writes",
    "lost_writes",
    "sc_updates",
    "window_slides",
    "total_flips",
    "set_flips",
    "reset_flips",
    "compressed_writes",
    "uncompressed_writes",
    "start_pointer_updates",
    "encoding_updates",
    "remaps",
    "deaths",
    "revivals",
    "pad_table_writes",
)


class ReferenceModel:
    """Loop-based oracle controller over one PCM region.

    Mirrors :class:`repro.core.controller.CompressedPCMController`'s
    public write/read surface; every :meth:`write` returns a plain dict
    of the stage-boundary record the lockstep harness diffs against the
    fast pipeline's :class:`~repro.engine.context.WriteResult`.
    """

    def __init__(
        self,
        config,
        n_lines: int,
        endurance: list[list[int]],
        scheme,
    ) -> None:
        self.config = config
        self.n_lines = n_lines
        self.scheme = scheme

        self.wl_backend = config.wl_backend
        if self.wl_backend == "wolfram":
            self.start_gap: (
                _RefStartGap | _RefRegionStartGap | _RefWolframPAD
            ) = _RefWolframPAD(n_lines, config.start_gap_psi)
        elif config.start_gap_regions > 1:
            self.start_gap = _RefRegionStartGap(
                n_lines, config.start_gap_psi, config.start_gap_regions
            )
        else:
            self.start_gap = _RefStartGap(n_lines, config.start_gap_psi)
        base_physical = self.start_gap.physical_lines
        spare_count = int(base_physical * config.spare_line_fraction)
        physical = base_physical + spare_count
        if len(endurance) != physical:
            raise ValueError(
                f"need endurance for {physical} physical lines, got {len(endurance)}"
            )
        self.capacity_lines = base_physical
        self.n_physical = physical
        if not spare_count:
            self.remapper = None
        elif self.wl_backend == "wolfram":
            self.remapper = _RefPadRemapper(
                spare_lines=list(range(base_physical, physical))
            )
        else:
            self.remapper = _RefFreeP(
                spare_lines=list(range(base_physical, physical)),
                pointer_bits=max(1, (physical - 1).bit_length()),
            )
        self.intra_wl = (
            _RefIntraWL(config.n_banks, config.intra_counter_limit)
            if config.use_intra_wear_leveling
            else None
        )
        self.lines = [_RefLine(row) for row in endurance]
        self.metadata = [_RefMeta() for _ in range(physical)]
        self.dead = [False] * physical
        self.dead_count = 0
        self.repairs: list[dict[int, int]] = [{} for _ in range(physical)]
        self.death_fault_counts: dict[int, int] = {}
        self.stats = {name: 0 for name in STAT_FIELDS}
        self.heuristic_steps: dict[int, int] = {}
        self._shadow: dict[int, bytes] = {}

    @classmethod
    def from_controller(cls, controller) -> "ReferenceModel":
        """Build the oracle twin of a freshly constructed fast controller.

        The oracle copies the controller's sampled per-cell endurance
        (the only random input) and re-derives everything else from the
        config, so the pair then evolves in lockstep deterministically.
        """
        from ..correction import make_scheme
        from ..pcm.mlc import MLCBankArray

        memory = controller.memory
        if isinstance(memory, MLCBankArray):
            raise NotImplementedError(
                "the reference model covers SLC banks only; MLC writes touch "
                "paired bits per cell, which the oracle's cell loop does not model"
            )
        stats = controller.stats
        if stats.demand_writes or stats.gap_move_writes:
            raise ValueError(
                "from_controller needs a fresh controller; this one has "
                f"already absorbed {stats.demand_writes} demand writes"
            )
        return cls(
            config=controller.config,
            n_lines=controller.n_lines,
            endurance=memory.endurance.tolist(),
            scheme=make_scheme(controller.config.correction_scheme),
        )

    # -- public API ------------------------------------------------------

    def write(self, logical: int, data: bytes) -> dict:
        """Handle one demand write-back; returns the stage-boundary record."""
        if len(data) != LINE_BYTES:
            raise ValueError(f"write data must be {LINE_BYTES} bytes")
        movement = self.start_gap.on_write(logical)
        if movement is not None:
            self._handle_gap_move(movement)
        self._shadow[logical] = data
        physical = self._resolve(self.start_gap.map(logical))
        self.stats["demand_writes"] += 1
        return self._write_line(physical, data, revival_allowed=False)

    def read(self, logical: int) -> bytes | None:
        """Read one line back; None when the data was lost to a death."""
        physical = self._resolve(self.start_gap.map(logical))
        if self.dead[physical]:
            return None
        if logical not in self._shadow:
            return None
        meta = self.metadata[physical]
        bits = list(self.lines[physical].stored)
        for position, value in self.repairs[physical].items():
            bits[position] = value
        if not meta.compressed:
            return _bits_to_bytes(bits)
        payload_bits = [bits[pos] for pos in _window_positions(meta.start_pointer, meta.stored_size)]
        payload = _bits_to_bytes(payload_bits)
        from .refcompress import reference_decompress

        return reference_decompress(meta.encoding, payload, meta.stored_size * 8)

    @property
    def dead_fraction(self) -> float:
        return self.dead_count / self.capacity_lines

    # -- lockstep state exports ------------------------------------------

    def stats_dict(self) -> dict:
        """All maintained counters plus the Figure 8 step tally."""
        out = dict(self.stats)
        out["heuristic_steps"] = dict(self.heuristic_steps)
        out["stored_writes"] = (
            self.stats["compressed_writes"] + self.stats["uncompressed_writes"]
        )
        return out

    def wl_registers(self) -> dict:
        out = {"start_gap": self.start_gap.registers()}
        if self.intra_wl is not None:
            out["intra_wl"] = self.intra_wl.registers()
        if self.remapper is not None:
            out["freep"] = (
                tuple(self.remapper.free_spares),
                tuple(sorted(self.remapper.remap_table.items())),
                self.remapper.remaps_performed,
            )
        return out

    def line_state(self, physical: int) -> tuple[tuple, tuple]:
        line = self.lines[physical]
        return (tuple(line.stored), tuple(line.counts))

    def metadata_tuple(self, physical: int) -> tuple:
        return self.metadata[physical].as_tuple()

    # -- write-path internals --------------------------------------------

    def _resolve(self, physical: int) -> int:
        if self.remapper is None:
            return physical
        return self.remapper.resolve(physical)

    def _handle_gap_move(self, movement: tuple) -> None:
        """Relocate displaced lines: one slot per gap move, two per swap."""
        if movement[0] == "pad":
            destinations = movement[1:]
            self.stats["pad_table_writes"] += 2
        else:
            destinations = (movement[1],)
        for destination in destinations:
            logical = self.start_gap.logical_of(destination)
            if logical is None:
                continue
            data = self._shadow.get(logical)
            if data is None:
                continue
            self.stats["gap_move_writes"] += 1
            self._write_line(
                self._resolve(destination), data, revival_allowed=True
            )

    def _write_line(self, physical: int, data: bytes, revival_allowed: bool) -> dict:
        config = self.config
        if self.dead[physical] and not (
            revival_allowed and config.use_dead_block_revival
        ):
            self.stats["lost_writes"] += 1
            return self._result(
                physical, compressed=False, size_bytes=LINE_BYTES,
                window_start=0, flips=0, lost=True,
            )
        was_dead = self.dead[physical]
        ctx = self._make_context(physical, data)
        ctx["hint"] = self._initial_hint(physical, ctx)
        result = self._attempt(physical, ctx)
        if result["died"]:
            return result
        if was_dead:
            self._revive(physical)
            result["revived"] = True
        if self.intra_wl is not None:
            self.intra_wl.record_write(physical % self.config.n_banks)
        return result

    def _make_context(self, physical: int, data: bytes) -> dict:
        compressed, comp_result, step = self._choose_format(physical, data)
        ctx = {
            "data": data,
            "compressed": compressed,
            "result": comp_result,
            "step": step,
            "hint": 0,
            "line_faults": 0,
        }
        if compressed:
            ctx["payload"] = comp_result.payload
            ctx["size"] = comp_result.size_bytes
        else:
            ctx["payload"] = data
            ctx["size"] = LINE_BYTES
        return ctx

    def _choose_format(self, physical: int, data: bytes):
        """Best-of compression + the Figure 8 decision flow, verbatim."""
        config = self.config
        if not config.use_compression:
            return False, None, 0
        comp_result = reference_best_compress(data)
        if comp_result.size_bytes >= LINE_BYTES:
            return False, comp_result, 0
        if not config.use_heuristic:
            return True, comp_result, 0
        meta = self.metadata[physical]
        new_size = comp_result.size_bytes
        sc_before = meta.sc
        if new_size < config.threshold1:
            compress, step = True, 1
        elif meta.sc == 3:
            compress, step = False, 2
        else:
            if abs(meta.stored_size - new_size) < config.threshold2:
                meta.sc = max(meta.sc - 1, 0)
            else:
                meta.sc = min(meta.sc + 1, 3)
            compress, step = True, 3
        if meta.sc != sc_before:
            self.stats["sc_updates"] += 1
        self.heuristic_steps[step] = self.heuristic_steps.get(step, 0) + 1
        return compress, comp_result, step

    def _initial_hint(self, physical: int, ctx: dict) -> int:
        if not ctx["compressed"]:
            return 0
        if self.intra_wl is not None:
            return self.intra_wl.offset(physical % self.config.n_banks)
        return self.metadata[physical].start_pointer

    def _attempt(self, physical: int, ctx: dict) -> dict:
        """The place/program/verify loop for one physical target."""
        flips = 0
        for _attempt in range(LINE_BYTES):
            start = self._place(physical, ctx)
            if start is None:
                break
            target, programmed = self._program(physical, ctx, start)
            flips += programmed
            if self._verify(physical, ctx, start):
                self._commit(physical, ctx, start, target)
                return self._result(
                    physical, compressed=ctx["compressed"], size_bytes=ctx["size"],
                    window_start=start, flips=flips, heuristic_step=ctx["step"],
                )
            ctx["hint"] = (start + 1) % LINE_BYTES

        if self._fallback_to_compressed(ctx):
            return self._attempt(physical, ctx)
        spare = self._try_remap(physical)
        if spare is not None:
            return self._attempt(spare, ctx)

        self._mark_dead(physical)
        return self._result(
            physical, compressed=ctx["compressed"], size_bytes=ctx["size"],
            window_start=0, flips=flips, died=True, lost=True,
            heuristic_step=ctx["step"],
        )

    def _place(self, physical: int, ctx: dict) -> int | None:
        line = self.lines[physical]
        ctx["line_faults"] = line.fault_count()
        if ctx["line_faults"] <= self.scheme.deterministic_capability:
            start = ctx["hint"] % LINE_BYTES
        else:
            start = self._find_window(
                line.fault_positions(), ctx["size"], ctx["hint"]
            )
        if start is None:
            return None
        if ctx["compressed"] and start != self.metadata[physical].start_pointer:
            self.stats["window_slides"] += 1
        return start

    def _faults_in_window(
        self, fault_positions: list[int], start_byte: int, size_bytes: int
    ) -> list[int]:
        start_bit = start_byte * 8
        size_bits = size_bytes * 8
        relative = []
        for position in fault_positions:
            rebased = (position - start_bit) % LINE_BITS
            if rebased < size_bits:
                relative.append(rebased)
        relative.sort()
        return relative

    def _find_window(
        self, fault_positions: list[int], size_bytes: int, hint: int
    ) -> int | None:
        scheme = self.scheme
        if len(fault_positions) <= scheme.deterministic_capability:
            return hint % LINE_BYTES
        if size_bytes == LINE_BYTES:
            inside = self._faults_in_window(fault_positions, 0, size_bytes)
            return 0 if scheme.can_correct(inside) else None
        for step in range(LINE_BYTES):
            start = (hint + step) % LINE_BYTES
            inside = self._faults_in_window(fault_positions, start, size_bytes)
            if len(inside) <= scheme.deterministic_capability or scheme.can_correct(
                inside
            ):
                return start
        return None

    def _program(self, physical: int, ctx: dict, start: int) -> tuple[list[int], int]:
        """Differential write of the payload window, cell by cell."""
        line = self.lines[physical]
        target = list(line.stored)
        payload_bits = _bytes_to_bits(ctx["payload"])
        for offset, position in enumerate(_window_positions(start, ctx["size"])):
            target[position] = payload_bits[offset]

        programmed = 0
        set_flips = 0
        new_faults = 0
        for position in range(LINE_BITS):
            if target[position] == line.stored[position]:
                continue
            if line.counts[position] >= line.endurance[position]:
                continue  # stuck cell: the program pulse has no effect
            line.counts[position] += 1
            line.stored[position] = target[position]
            programmed += 1
            if target[position]:
                set_flips += 1
            if line.counts[position] >= line.endurance[position]:
                new_faults += 1
        self.stats["total_flips"] += programmed
        self.stats["set_flips"] += set_flips
        self.stats["reset_flips"] += programmed - set_flips
        ctx["line_faults"] += new_faults
        return target, programmed

    def _verify(self, physical: int, ctx: dict, start: int) -> bool:
        if ctx["line_faults"] <= self.scheme.deterministic_capability:
            return True
        inside = self._faults_in_window(
            self.lines[physical].fault_positions(), start, ctx["size"]
        )
        return len(inside) <= self.scheme.deterministic_capability or (
            self.scheme.can_correct(inside)
        )

    def _commit(self, physical: int, ctx: dict, start: int, target: list[int]) -> None:
        meta = self.metadata[physical]
        new_pointer = start if ctx["compressed"] else 0
        new_encoding = (
            reference_encode_metadata(ctx["result"])
            if ctx["compressed"] and ctx["result"] is not None
            else meta.encoding
        )
        if new_pointer != meta.start_pointer:
            self.stats["start_pointer_updates"] += 1
        if new_encoding != meta.encoding or ctx["size"] != meta.stored_size:
            self.stats["encoding_updates"] += 1
        meta.start_pointer = new_pointer
        meta.compressed = ctx["compressed"]
        meta.stored_size = ctx["size"]
        meta.encoding = new_encoding
        line = self.lines[physical]
        if ctx["line_faults"]:
            window = _window_positions(start, ctx["size"])
            self.repairs[physical] = {
                position: target[position]
                for position in sorted(window)
                if line.is_faulty(position)
            }
        elif self.repairs[physical]:
            self.repairs[physical] = {}
        if ctx["compressed"]:
            self.stats["compressed_writes"] += 1
        else:
            self.stats["uncompressed_writes"] += 1

    def _try_remap(self, physical: int) -> int | None:
        if self.remapper is None:
            return None
        line = self.lines[physical]
        if self.wl_backend == "wolfram":
            # PAD remap: the decoder table holds the redirect, so the
            # dead line's remaining health is irrelevant.
            remapped = self.remapper.remap(physical)
            if remapped is None:
                return None
            spare, rewrites = remapped
            self.stats["pad_table_writes"] += rewrites
        else:
            healthy = LINE_BITS - line.fault_count()
            spare = self.remapper.remap(physical, healthy)
            if spare is None:
                return None
        self.stats["remaps"] += 1
        self.death_fault_counts[physical] = line.fault_count()
        return spare

    def _fallback_to_compressed(self, ctx: dict) -> bool:
        comp_result = ctx["result"]
        if not (
            self.config.use_dead_block_revival
            and not ctx["compressed"]
            and comp_result is not None
            and comp_result.size_bytes < LINE_BYTES
        ):
            return False
        ctx["compressed"] = True
        ctx["payload"] = comp_result.payload
        ctx["size"] = comp_result.size_bytes
        return True

    def _mark_dead(self, physical: int) -> None:
        if not self.dead[physical]:
            self.dead_count += 1
        self.dead[physical] = True
        self.stats["deaths"] += 1
        self.death_fault_counts[physical] = self.lines[physical].fault_count()
        self.stats["lost_writes"] += 1

    def _revive(self, physical: int) -> None:
        if self.dead[physical]:
            self.dead_count -= 1
        self.dead[physical] = False
        self.stats["revivals"] += 1

    @staticmethod
    def _result(
        physical: int,
        compressed: bool,
        size_bytes: int,
        window_start: int,
        flips: int,
        died: bool = False,
        revived: bool = False,
        lost: bool = False,
        heuristic_step: int = 0,
    ) -> dict:
        return {
            "physical": physical,
            "compressed": compressed,
            "size_bytes": size_bytes,
            "window_start": window_start,
            "flips": flips,
            "died": died,
            "revived": revived,
            "lost": lost,
            "heuristic_step": heuristic_step,
        }
