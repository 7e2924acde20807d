"""System configurations: Baseline, Comp, Comp+W, Comp+WF (Section IV).

All four evaluated systems share the substrate -- chip-level
differential writes, Start-Gap inter-line wear-leveling, and ECP-6 --
and differ only in the compression-architecture features they enable:

============ =========== ============ ==================== ===========
system       compression intra-line WL dead-block revival  heuristic
============ =========== ============ ==================== ===========
``baseline``     no          no             no                 no
``comp``         yes         no             no                 yes
``comp_w``       yes         yes            no                 yes
``comp_wf``      yes         yes            yes                yes
============ =========== ============ ==================== ===========
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Default Figure 8 thresholds: always compress below Threshold1 bytes;
#: a size swing below Threshold2 bytes counts as "minor".
DEFAULT_THRESHOLD1 = 16
DEFAULT_THRESHOLD2 = 8


@dataclass(frozen=True)
class SystemConfig:
    """Feature selection and tuning knobs for one evaluated system."""

    name: str
    use_compression: bool = True
    use_intra_wear_leveling: bool = True
    use_dead_block_revival: bool = True
    use_heuristic: bool = True
    threshold1: int = DEFAULT_THRESHOLD1
    threshold2: int = DEFAULT_THRESHOLD2
    correction_scheme: str = "ecp6"
    start_gap_psi: int = 100
    #: Writes per bank between intra-line rotations.  The paper uses
    #: 16-bit counters (65536) against a 1e7-write endurance; scaled
    #: simulations scale this proportionally (see
    #: :func:`repro.lifetime.systems.scaled_intra_counter_limit`).
    intra_counter_limit: int = 2**16
    #: FREE-p extension: fraction of extra physical lines reserved as
    #: remap spares (0 disables remap-on-death, the paper's setting).
    spare_line_fraction: float = 0.0
    #: Start-Gap regions (the original paper's scalable configuration;
    #: 1 = the single-region scheme the DSN'17 baseline assumes).
    start_gap_regions: int = 1
    #: Content-addressed compression-cache entries (distinct 64-byte
    #: lines whose CompressionResult is memoized).  Purely a simulator
    #: speed knob -- results are bit-for-bit identical either way.
    #: 0 disables the cache.
    compression_cache_lines: int = 1024
    #: Hybrid extension: capacity of the content-aware DRAM front tier
    #: (:mod:`repro.tier`) in 64-byte lines, charged per unique resident
    #: content.  0 (the paper's setting) disables the tier entirely --
    #: runs are then bit-identical to a bare controller.
    tier_lines: int = 0
    #: Energy extension: write-energy-reducing line encoding
    #: (:mod:`repro.energy.encoders`).  ``"none"`` (the paper's setting)
    #: runs the plain differential write, bit-identical to every
    #: pre-encoding run; ``"wire"`` adds WIRE-style energy-weighted
    #: inversion; ``"coset"`` adds restricted coset coding through the
    #: compression slack (requires compression).
    encoding: str = "none"
    #: Inter-line wear-leveling / fault-remap backend.
    #: ``"startgap_freep"`` (the paper's substrate) rotates a gap line
    #: through the array and retires dead lines through FREE-p pointer
    #: chains; ``"wolfram"`` replaces both with a WoLFRaM-style
    #: programmable address decoder (:mod:`repro.wearleveling.wolfram`)
    #: that swaps a written line's physical slot with a rotating partner
    #: every ``start_gap_psi`` writes and remaps dead lines to spares by
    #: rewriting the decoder table (no in-line pointer storage needed).
    #: Every other stage (compress / encoding / program / correction)
    #: is backend-agnostic and unchanged.
    wl_backend: str = "startgap_freep"
    #: Bank cells: ``"slc"`` (the paper's) or ``"mlc"`` (2-bit cells,
    #: footnote 1, :mod:`repro.pcm.mlc`).
    cell_type: str = "slc"
    #: Banks the physical lines are striped over, round-robin (Table
    #: II).  Comp+W keeps one intra-line rotation counter per bank.
    n_banks: int = 8

    def __post_init__(self) -> None:
        if self.threshold1 < 1 or self.threshold1 > 64:
            raise ValueError("threshold1 must be in [1, 64] bytes")
        if self.threshold2 < 0 or self.threshold2 > 64:
            raise ValueError("threshold2 must be in [0, 64] bytes")
        if self.start_gap_psi < 1:
            raise ValueError("start_gap_psi must be positive")
        if self.intra_counter_limit < 1:
            raise ValueError("intra_counter_limit must be positive")
        if not 0 <= self.spare_line_fraction < 1:
            raise ValueError("spare_line_fraction must be in [0, 1)")
        if self.start_gap_regions < 1:
            raise ValueError("start_gap_regions must be positive")
        if self.compression_cache_lines < 0:
            raise ValueError("compression_cache_lines must be >= 0")
        if self.tier_lines < 0:
            raise ValueError("tier_lines must be >= 0")
        if self.encoding not in ("none", "wire", "coset"):
            raise ValueError(
                f"encoding must be 'none', 'wire' or 'coset', "
                f"got {self.encoding!r}"
            )
        if self.wl_backend not in ("startgap_freep", "wolfram"):
            raise ValueError(
                f"wl_backend must be 'startgap_freep' or 'wolfram', "
                f"got {self.wl_backend!r}"
            )
        if self.cell_type not in ("slc", "mlc"):
            raise ValueError(f"cell_type must be 'slc' or 'mlc', got {self.cell_type!r}")
        if self.n_banks < 1:
            raise ValueError("n_banks must be positive")
        if self.wl_backend == "wolfram" and self.start_gap_regions > 1:
            raise ValueError(
                "start_gap_regions is a Start-Gap scaling mechanism; the "
                "WoLFRaM PAD table is already region-free -- use "
                "start_gap_regions=1 with wl_backend='wolfram'"
            )
        if self.encoding == "coset" and not self.use_compression:
            raise ValueError(
                "restricted coset coding stores its selectors in "
                "compression slack; enable compression first"
            )
        if not self.use_compression and (
            self.use_intra_wear_leveling or self.use_dead_block_revival
        ):
            raise ValueError(
                "intra-line wear-leveling and dead-block revival are "
                "compression-window features; enable compression first"
            )

    def with_overrides(self, **changes) -> "SystemConfig":
        """A copy with some knobs replaced (for sensitivity sweeps)."""
        return replace(self, **changes)


def baseline(**overrides) -> SystemConfig:
    """DW + Start-Gap + ECP-6, no compression (Table II baseline)."""
    return SystemConfig(
        name="baseline",
        use_compression=False,
        use_intra_wear_leveling=False,
        use_dead_block_revival=False,
        use_heuristic=False,
    ).with_overrides(**overrides)


def comp(**overrides) -> SystemConfig:
    """Naive compression: window sliding only (Section V-A.1)."""
    return SystemConfig(
        name="comp",
        use_intra_wear_leveling=False,
        use_dead_block_revival=False,
    ).with_overrides(**overrides)


def comp_w(**overrides) -> SystemConfig:
    """Compression + intra-line wear-leveling (Section V-A.2)."""
    return SystemConfig(
        name="comp_w",
        use_dead_block_revival=False,
    ).with_overrides(**overrides)


def comp_wf(**overrides) -> SystemConfig:
    """The full design: + dead-block revival (Section V-A.3)."""
    return SystemConfig(name="comp_wf").with_overrides(**overrides)


#: The four evaluated systems in the paper's presentation order.
EVALUATED_SYSTEMS = ("baseline", "comp", "comp_w", "comp_wf")
