"""Per-operation write-path energy model (array cells + ECC logic).

The lifetime simulator has always counted *what* was programmed
(``set_flips`` / ``reset_flips``); this module prices those counters --
plus the encoding flag cells and the correction scheme's logic -- into
picojoules, so systems can be compared on an energy x lifetime x
throughput Pareto frontier instead of lifetime alone.

Three cost groups:

* **Array programming** -- per-cell SET/RESET pulse energies from
  :class:`~repro.pcm.device.PCMEnergy` (Table II-era NVSim numbers).
  SET pulses are long/low-current, RESET short/high-current.
* **Encoding flags** -- WIRE inversion flags and coset selectors are
  extra PCM cells programmed alongside the data; their flips are
  counted separately (``encoding_flag_set_flips`` /
  ``encoding_flag_reset_flips`` in
  :class:`~repro.engine.context.ControllerStats`) and priced at the
  same per-cell pulse costs.
* **Correction logic** -- gate-level accounting in the spirit of the
  Error-Code-Correction simulator's ``gate_energy.hpp``: each scheme
  gets a per-write *check* cost (syndrome/feasibility evaluation) and a
  per-commit *repair-state* cost (pointer/flag register updates),
  derived from rough gate counts priced at a per-switch CMOS energy.

Every cost is an explicit dataclass field, so sensitivity studies can
swap any constant without touching the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pcm.device import PCMEnergy

#: Energy of one CMOS gate switching event, picojoules (~1 fJ at a
#: 22 nm-class node; only relative magnitudes matter downstream).
GATE_SWITCH_PJ = 0.001

#: Energy of one flip-flop / register-bit update, picojoules.
REGISTER_BIT_PJ = 0.002

#: Width of one WoLFRaM programmable-address-decoder entry, bits.  A
#: PAD entry holds a physical row index; 16 bits covers any bank this
#: repo models (and matches the register granularity real decoders
#: provision).  Each entry rewrite -- two per wear-triggered swap, one
#: plus collapsed chain links per fault remap
#: (``pad_table_writes`` in ControllerStats) -- is priced as
#: ``PAD_ENTRY_BITS`` register-bit updates.
PAD_ENTRY_BITS = 16


@dataclass(frozen=True)
class CorrectionEnergy:
    """Gate-level energy of one correction scheme's write-path logic.

    Attributes:
        name: Scheme name (matches ``repro.correction.make_scheme``).
        check_gates: Gate switches per write for the feasibility /
            syndrome check (runs on *every* stored write).
        commit_register_bits: Register bits rewritten when the repair
            state is refreshed (runs only on writes that land on a line
            with stuck cells -- ``repair_commits`` in the stats).
    """

    name: str
    check_gates: int
    commit_register_bits: int

    def check_pj(self, gate_pj: float = GATE_SWITCH_PJ) -> float:
        """Energy of one per-write feasibility/syndrome evaluation."""
        return self.check_gates * gate_pj

    def commit_pj(self, register_pj: float = REGISTER_BIT_PJ) -> float:
        """Energy of one repair-state refresh."""
        return self.commit_register_bits * register_pj


#: Gate-count table for the four supported schemes.  Counts are rough
#: structural estimates (documented per scheme) -- the point is that
#: the *relative* logic cost rides the Pareto sweep, not that any one
#: number is synthesis-exact.
CORRECTION_ENERGY: dict[str, CorrectionEnergy] = {
    # ECP-6: six 9-bit fault pointers; the check compares each pointer
    # against the window's fault positions (6 x ~18 XOR/AND) plus a
    # small priority tree; a commit rewrites up to 6 x (9+1)-bit
    # pointer entries.
    "ecp6": CorrectionEnergy("ecp6", check_gates=140, commit_register_bits=60),
    # SAFER-32: 32 groups from a 5-level bit-index partition; the check
    # folds the 512-bit fault mask through per-group XOR trees
    # (~512/2 gates) plus group-state compares; a commit rewrites the
    # 32 group-inversion flags and the 5x5 partition selectors.
    "safer32": CorrectionEnergy("safer32", check_gates=300, commit_register_bits=57),
    # Aegis 17x31: 2-D (17 x 31) grid membership -- the check maps the
    # window's faults onto grid lines (mod-17/mod-31 index arithmetic,
    # ~20 gates per fault against an 8-fault design point) plus the
    # per-axis conflict scan; a commit rewrites one grid-line pointer
    # pair per repaired fault (design-point 17 + 31 selector bits).
    "aegis17x31": CorrectionEnergy("aegis17x31", check_gates=260, commit_register_bits=48),
    # SECDED (72,64): eight parity bits, each an XOR tree over ~27 data
    # bits (~208 XORs to encode) plus the 72-bit syndrome compare on
    # check; a commit rewrites the 8 stored check bits.
    "secded": CorrectionEnergy("secded", check_gates=280, commit_register_bits=8),
}


def correction_energy(scheme: str) -> CorrectionEnergy:
    """The gate-level cost entry for a scheme name.

    Unknown schemes fall back to the ECP-6 entry (the paper's default
    substrate) rather than raising -- the energy model must be able to
    price stats from configs it has never seen.
    """
    return CORRECTION_ENERGY.get(scheme, CORRECTION_ENERGY["ecp6"])


@dataclass(frozen=True)
class EnergyBreakdown:
    """One run's write-path energy, split by cost group (picojoules)."""

    array_set_pj: float
    array_reset_pj: float
    flag_set_pj: float
    flag_reset_pj: float
    correction_check_pj: float
    correction_commit_pj: float
    #: Demand writes the energy was spent over (0 when unknown).
    writes: int = 0
    #: WoLFRaM PAD decoder-table rewrite energy (0.0 on the Start-Gap
    #: backend and for records predating the field).
    pad_table_pj: float = 0.0

    @property
    def array_pj(self) -> float:
        """Data-cell programming energy."""
        return self.array_set_pj + self.array_reset_pj

    @property
    def flag_pj(self) -> float:
        """Encoding flag/selector cell programming energy."""
        return self.flag_set_pj + self.flag_reset_pj

    @property
    def correction_pj(self) -> float:
        """Correction-scheme logic energy."""
        return self.correction_check_pj + self.correction_commit_pj

    @property
    def total_pj(self) -> float:
        """Total write-path energy."""
        return self.array_pj + self.flag_pj + self.correction_pj + self.pad_table_pj

    @property
    def per_write_pj(self) -> float:
        """Mean energy per demand write (0.0 when writes is unknown)."""
        return self.total_pj / self.writes if self.writes else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (benchmark records, telemetry)."""
        return {
            "array_set_pj": self.array_set_pj,
            "array_reset_pj": self.array_reset_pj,
            "flag_set_pj": self.flag_set_pj,
            "flag_reset_pj": self.flag_reset_pj,
            "correction_check_pj": self.correction_check_pj,
            "correction_commit_pj": self.correction_commit_pj,
            "pad_table_pj": self.pad_table_pj,
            "total_pj": self.total_pj,
            "writes": self.writes,
            "per_write_pj": self.per_write_pj,
        }


@dataclass(frozen=True)
class EnergyModel:
    """Prices write-path operation counters into picojoules.

    The counter source is duck-typed: a
    :class:`~repro.engine.context.ControllerStats`, or anything exposing
    its counter names (missing attributes read as 0, so sparse stubs
    price cleanly).  A lifetime result prices its ``stats`` through
    :meth:`~repro.lifetime.results.LifetimeResult.energy_breakdown`.
    """

    cell: PCMEnergy = field(default_factory=PCMEnergy)
    gate_pj: float = GATE_SWITCH_PJ
    register_pj: float = REGISTER_BIT_PJ

    def breakdown(
        self,
        counters,
        scheme: str = "ecp6",
        writes: int | None = None,
    ) -> EnergyBreakdown:
        """Price one run's counters under ``scheme``'s logic costs.

        ``writes`` overrides the per-write denominator (defaults to the
        counters' ``demand_writes`` / ``writes_issued``).
        """
        get = lambda name: getattr(counters, name, 0)  # noqa: E731
        correction = correction_energy(scheme)
        stored = get("stored_writes")
        if writes is None:
            writes = get("demand_writes") or get("writes_issued")
        return EnergyBreakdown(
            array_set_pj=get("set_flips") * self.cell.set_pj_per_bit,
            array_reset_pj=get("reset_flips") * self.cell.reset_pj_per_bit,
            flag_set_pj=get("encoding_flag_set_flips") * self.cell.set_pj_per_bit,
            flag_reset_pj=(
                get("encoding_flag_reset_flips") * self.cell.reset_pj_per_bit
            ),
            correction_check_pj=stored * correction.check_pj(self.gate_pj),
            correction_commit_pj=(
                get("repair_commits") * correction.commit_pj(self.register_pj)
            ),
            writes=int(writes or 0),
            pad_table_pj=(
                get("pad_table_writes") * PAD_ENTRY_BITS * self.register_pj
            ),
        )
