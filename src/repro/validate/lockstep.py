"""Lockstep differential execution of the fast pipeline and the oracle.

:class:`ValidatingController` drives a production
:class:`~repro.core.controller.CompressedPCMController` and a
:class:`~repro.validate.reference.ReferenceModel` built from the same
sampled endurance, issues every write to both, and diffs the
stage-boundary state after each one: the write result (storage format,
window start/size, programmed flips, death/revival verdict), the full
statistics counters, the wear-leveling registers, the dead set, the
written line's cell state, the 13-bit metadata, the repair table, and a
read-back of the just-written logical line.  Any mismatch raises
:class:`DivergenceError` carrying a self-contained repro recipe --
config + seed + the exact write sequence -- that
:func:`replay_recipe` turns back into the failure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.config import SystemConfig
from ..core.controller import CompressedPCMController
from ..pcm import EnduranceModel
from .reference import STAT_FIELDS, ReferenceModel

#: Default full-memory sweep period (every write still gets the cheap
#: written-line / stats / register diff).
DEFAULT_CHECK_STATE_EVERY = 64


class DivergenceError(AssertionError):
    """The fast pipeline and the reference model disagreed.

    Attributes:
        diffs: One human-readable line per mismatching field.
        recipe: A JSON-serializable dict that reproduces the failure via
            :func:`replay_recipe` (config + seed + write sequence).
    """

    def __init__(self, message: str, diffs: list[str], recipe: dict) -> None:
        detail = "\n  ".join(diffs[:20])
        more = f"\n  ... and {len(diffs) - 20} more" if len(diffs) > 20 else ""
        super().__init__(f"{message}\n  {detail}{more}")
        self.diffs = diffs
        self.recipe = recipe


class ValidatingController:
    """A fast controller and its oracle twin, diffed after every write."""

    def __init__(
        self,
        config: SystemConfig,
        n_lines: int,
        *,
        endurance_mean: float = 32.0,
        endurance_cov: float = 0.2,
        seed: int = 0,
        check_state_every: int = DEFAULT_CHECK_STATE_EVERY,
    ) -> None:
        self.config = config
        self.n_lines = n_lines
        self.endurance_mean = endurance_mean
        self.endurance_cov = endurance_cov
        self.seed = seed
        self.check_state_every = check_state_every
        model = EnduranceModel(mean=endurance_mean, cov=endurance_cov)
        self.fast = CompressedPCMController(
            config,
            n_lines,
            model,
            np.random.default_rng(seed),
        )
        self.oracle = ReferenceModel.from_controller(self.fast)
        self.ops: list[tuple[int, bytes]] = []
        self.write_index = 0

    @property
    def compressor(self):
        """The fast controller's compressor, so a front tier wrapping
        this controller probes with (and hands results to) exactly the
        production compressor."""
        return self.fast.compressor

    # -- driving ---------------------------------------------------------

    def write(self, logical: int, data: bytes):
        """Issue one write to both models and diff the outcome."""
        self.ops.append((logical, bytes(data)))
        fast_result = self.fast.write(logical, data)
        oracle_record = self.oracle.write(logical, data)
        diffs = self._diff_write(logical, fast_result, oracle_record)
        self.write_index += 1
        if self.check_state_every and self.write_index % self.check_state_every == 0:
            diffs.extend(self._diff_full_state())
        if diffs:
            raise DivergenceError(
                f"fast/oracle divergence at write {self.write_index - 1} "
                f"(logical {logical})",
                diffs,
                self._recipe(logical, data),
            )
        return fast_result

    def write_batch(self, requests):
        """Issue a batch to the fast model, serially to the oracle, diff.

        The fast controller retires the whole batch through
        :meth:`~repro.core.controller.CompressedPCMController.write_batch`
        while the oracle replays the same requests one by one -- the
        strongest equivalence check the batched engine gets.  Per-write
        result rows are diffed pairwise; the cross-cutting state (stats,
        wear-leveling registers, dead set, written lines, read-backs) is
        diffed once both sides have retired every write, since it is
        only comparable at batch boundaries.
        """
        requests = [(logical, bytes(data)) for logical, data in requests]
        start_index = self.write_index
        self.ops.extend(requests)
        fast_results = self.fast.write_batch(requests)
        oracle_records = [
            self.oracle.write(logical, data) for logical, data in requests
        ]
        diffs: list[str] = []
        for offset, (fast_result, record) in enumerate(
            zip(fast_results, oracle_records)
        ):
            diffs.extend(
                f"[write {start_index + offset}] {line}"
                for line in self._diff_result(fast_result, record)
            )
        self.write_index += len(requests)
        diffs.extend(self._diff_globals())
        seen_lines: set[int] = set()
        seen_logicals: set[int] = set()
        for (logical, _), fast_result in zip(requests, fast_results):
            if fast_result.physical not in seen_lines:
                seen_lines.add(fast_result.physical)
                diffs.extend(self._diff_line(fast_result.physical))
            if logical not in seen_logicals:
                seen_logicals.add(logical)
                diffs.extend(self._diff_read(logical))
        if self.check_state_every and (
            self.write_index // self.check_state_every
            > start_index // self.check_state_every
        ):
            diffs.extend(self._diff_full_state())
        if diffs:
            raise DivergenceError(
                f"fast/oracle divergence in batched writes "
                f"[{start_index}, {self.write_index})",
                diffs,
                self._recipe(*requests[-1]),
            )
        return fast_results

    def verify_state(self) -> None:
        """Full-memory comparison; raises :class:`DivergenceError`."""
        diffs = self._diff_full_state()
        if diffs:
            raise DivergenceError(
                f"fast/oracle state divergence after write {self.write_index - 1}",
                diffs,
                self._recipe(*self.ops[-1]) if self.ops else self._recipe(0, bytes(64)),
            )

    # -- diffing ---------------------------------------------------------

    def _diff_write(self, logical: int, fast_result, oracle_record: dict) -> list[str]:
        diffs = self._diff_result(fast_result, oracle_record)
        diffs.extend(self._diff_globals())
        diffs.extend(self._diff_line(fast_result.physical))
        diffs.extend(self._diff_read(logical))
        return diffs

    @staticmethod
    def _diff_result(fast_result, oracle_record: dict) -> list[str]:
        diffs: list[str] = []
        for field, oracle_value in oracle_record.items():
            fast_value = getattr(fast_result, field)
            if fast_value != oracle_value:
                diffs.append(
                    f"result.{field}: fast={fast_value!r} oracle={oracle_value!r}"
                )
        return diffs

    def _diff_globals(self) -> list[str]:
        diffs: list[str] = []
        fast_stats = self._fast_stats_dict()
        oracle_stats = self.oracle.stats_dict()
        for field, oracle_value in oracle_stats.items():
            fast_value = fast_stats[field]
            if fast_value != oracle_value:
                diffs.append(
                    f"stats.{field}: fast={fast_value!r} oracle={oracle_value!r}"
                )

        fast_wl = self._fast_wl_registers()
        oracle_wl = self.oracle.wl_registers()
        for field, oracle_value in oracle_wl.items():
            fast_value = fast_wl.get(field)
            if fast_value != oracle_value:
                diffs.append(
                    f"registers.{field}: fast={fast_value!r} oracle={oracle_value!r}"
                )

        fast_dead = self.fast.dead.tolist()
        if fast_dead != self.oracle.dead:
            diffs.append(f"dead set: fast={fast_dead!r} oracle={self.oracle.dead!r}")
        fast_dead_count = self.fast.engine.dead_count
        if fast_dead_count != self.oracle.dead_count:
            diffs.append(
                f"dead_count: fast={fast_dead_count} oracle={self.oracle.dead_count}"
            )
        return diffs

    def _diff_read(self, logical: int) -> list[str]:
        fast_read = self._guarded_read(self.fast, logical)
        oracle_read = self._guarded_read(self.oracle, logical)
        if fast_read != oracle_read:
            return [
                f"read({logical}): fast={_hex(fast_read)} oracle={_hex(oracle_read)}"
            ]
        return []

    @staticmethod
    def _guarded_read(model, logical: int):
        """Read back one line; a decode crash is itself a divergence.

        Corrupted metadata (e.g. a stored size smaller than the real
        payload) makes decompression raise rather than return wrong
        bytes -- fold the exception into the comparison so it surfaces
        as a diff with a repro recipe instead of an unhandled error.
        """
        try:
            return model.read(logical)
        except Exception as error:  # noqa: BLE001 -- any crash is a diff
            return f"<read raised {type(error).__name__}: {error}>"

    def _diff_line(self, physical: int) -> list[str]:
        diffs: list[str] = []
        memory = self.fast.memory
        fast_stored = memory.stored[physical].tolist()
        fast_counts = memory.counts[physical].tolist()
        oracle_stored, oracle_counts = self.oracle.line_state(physical)
        if tuple(fast_stored) != oracle_stored:
            positions = [
                index
                for index, (a, b) in enumerate(zip(fast_stored, oracle_stored))
                if a != b
            ]
            diffs.append(f"line {physical} stored bits differ at cells {positions[:16]}")
        if tuple(fast_counts) != oracle_counts:
            positions = [
                index
                for index, (a, b) in enumerate(zip(fast_counts, oracle_counts))
                if a != b
            ]
            diffs.append(f"line {physical} wear counts differ at cells {positions[:16]}")

        fast_meta = self.fast.metadata[physical]
        fast_tuple = (
            fast_meta.start_pointer,
            fast_meta.encoding,
            fast_meta.sc,
            fast_meta.compressed,
            fast_meta.stored_size,
        )
        oracle_tuple = self.oracle.metadata_tuple(physical)
        if fast_tuple != oracle_tuple:
            diffs.append(
                f"line {physical} metadata (ptr, enc, sc, comp, size): "
                f"fast={fast_tuple!r} oracle={oracle_tuple!r}"
            )

        fast_repairs = {
            int(k): int(v) for k, v in self.fast.engine.repairs[physical].items()
        }
        if fast_repairs != self.oracle.repairs[physical]:
            diffs.append(
                f"line {physical} repairs: fast={fast_repairs!r} "
                f"oracle={self.oracle.repairs[physical]!r}"
            )
        return diffs

    def _diff_full_state(self) -> list[str]:
        diffs: list[str] = []
        for physical in range(self.oracle.n_physical):
            diffs.extend(self._diff_line(physical))
        # The maintained fault mask must agree with first principles.
        memory = self.fast.memory
        for physical in range(self.oracle.n_physical):
            fast_faults = np.flatnonzero(memory.faulty[physical]).tolist()
            oracle_faults = self.oracle.lines[physical].fault_positions()
            if fast_faults != oracle_faults:
                diffs.append(
                    f"line {physical} fault positions: fast={fast_faults!r} "
                    f"oracle={oracle_faults!r}"
                )
        fast_deaths = {
            int(k): int(v) for k, v in self.fast.death_fault_counts.items()
        }
        if fast_deaths != self.oracle.death_fault_counts:
            diffs.append(
                f"death_fault_counts: fast={fast_deaths!r} "
                f"oracle={self.oracle.death_fault_counts!r}"
            )
        return diffs

    def _fast_stats_dict(self) -> dict:
        stats = self.fast.stats
        out = {name: getattr(stats, name) for name in STAT_FIELDS}
        out["heuristic_steps"] = dict(stats.heuristic_steps)
        out["stored_writes"] = stats.stored_writes
        return out

    def _fast_wl_registers(self) -> dict:
        out: dict = {}
        start_gap = self.fast.start_gap
        gaps = getattr(start_gap, "_gaps", None)
        forward = getattr(start_gap, "_forward", None)
        if forward is not None:
            # WoLFRaM PAD backend: the whole permutation table is the
            # register state (plus the rotating partner pointer).
            out["start_gap"] = (
                "pad",
                tuple(forward),
                start_gap._partner,
                start_gap.write_count,
                start_gap.swaps,
            )
        elif gaps is not None:
            out["start_gap"] = tuple(
                (gap.start, gap.gap, gap.write_count, gap.gap_moves) for gap in gaps
            )
        else:
            out["start_gap"] = (
                start_gap.start,
                start_gap.gap,
                start_gap.write_count,
                start_gap.gap_moves,
            )
        intra = self.fast.intra_wl
        if intra is not None:
            out["intra_wl"] = (
                tuple(intra._counters),
                tuple(intra._offsets),
                intra.rotations,
            )
        remapper = self.fast.remapper
        if remapper is not None:
            out["freep"] = (
                tuple(remapper._free_spares),
                tuple(sorted(remapper._remap.items())),
                remapper.remaps_performed,
            )
        return out

    # -- repro recipes ---------------------------------------------------

    def _recipe(self, logical: int, data: bytes) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "n_lines": self.n_lines,
            "endurance_mean": self.endurance_mean,
            "endurance_cov": self.endurance_cov,
            "seed": self.seed,
            "check_state_every": self.check_state_every,
            "write_index": self.write_index,
            "logical": logical,
            "payload": bytes(data).hex(),
            "ops": [[op_logical, op_data.hex()] for op_logical, op_data in self.ops],
        }


def controller_from_recipe(recipe: dict) -> ValidatingController:
    """Rebuild the validating pair a recipe was captured from.

    Recipes written before the config carried ``n_banks`` store it at
    the top level; such a file still rebuilds its own bank count.
    """
    fields = dict(recipe["config"])
    if "n_banks" in recipe:
        fields.setdefault("n_banks", recipe["n_banks"])
    config = SystemConfig(**fields)
    return ValidatingController(
        config,
        recipe["n_lines"],
        endurance_mean=recipe["endurance_mean"],
        endurance_cov=recipe["endurance_cov"],
        seed=recipe["seed"],
        check_state_every=recipe.get("check_state_every", DEFAULT_CHECK_STATE_EVERY),
    )


def replay_recipe(recipe: dict) -> DivergenceError | None:
    """Re-run a recipe's write sequence; returns the divergence, or None.

    A ``None`` return means the recipe no longer reproduces (e.g. the
    underlying bug was fixed).
    """
    controller = controller_from_recipe(recipe)
    try:
        for logical, payload_hex in recipe["ops"]:
            controller.write(int(logical), bytes.fromhex(payload_hex))
        controller.verify_state()
    except DivergenceError as error:
        return error
    return None


def _hex(data: bytes | str | None) -> str:
    if data is None:
        return "None"
    if isinstance(data, str):  # a _guarded_read crash marker
        return data
    return data.hex()
