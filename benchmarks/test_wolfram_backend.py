"""Wear-leveling backend comparison (BENCH_wolfram.json).

PR 10's study: Comp+WF on the paper's Start-Gap + FREE-p substrate
versus the same system on the WoLFRaM programmable-address-decoder
backend (``wl_backend="wolfram"``), in the style of the paper's
lifetime and fault-tolerance figures:

* **fig10-style** -- writes-to-failure per workload, with the WoLFRaM
  run normalized to its Start-Gap twin;
* **fig12-style** -- fault tolerance at death: average stuck cells per
  dead block, deaths, revivals, and (with a spare pool) remap counts --
  the PAD remap needs no healthy cells in the dead line, FREE-p does;
* **fig13-style** -- the whole grid repeated at the high process
  variation point (CoV 0.25 next to the nominal 0.15).

Each run also prices the backend's bookkeeping through the energy
model: WoLFRaM pays ``pad_table_writes`` decoder-entry rewrites where
Start-Gap pays none (its registers are two counters).  The full point
set lands in ``benchmarks/results/BENCH_wolfram.json``, which records
the default scale: a smoke run leaves it alone.  Each (CoV, backend)
pair is one :class:`~repro.engine.SweepRunner` grid, so
``REPRO_BENCH_WORKERS`` fans it out like the lifetime studies.
"""

import json
from pathlib import Path

from repro.engine import SweepRunner

RESULTS_DIR = Path(__file__).parent / "results"

#: (label, system, backend) -- the spare-pool pair drives the
#: remap-to-spare machinery on both substrates.
VARIANTS = (
    ("comp_wf/startgap", "comp_wf", "startgap_freep"),
    ("comp_wf/wolfram", "comp_wf", "wolfram"),
    ("comp_wf+spares/startgap", "comp_wf_freep", "startgap_freep"),
    ("comp_wf+spares/wolfram", "comp_wf_freep", "wolfram"),
)
#: One grid per backend: its config overrides.
BACKEND_OVERRIDES = {"startgap_freep": {}, "wolfram": {"wl_backend": "wolfram"}}
SYSTEMS = ("comp_wf", "comp_wf_freep")
WORKLOADS = ("mcf", "gcc", "lbm")
COVS = (0.15, 0.25)


def test_wolfram_backend_lifetime_and_fault_tolerance(
    benchmark, report, bench_scale, default_scale
):
    def measure():
        points = []
        for cov in COVS:
            grids = {
                backend: SweepRunner(
                    systems=SYSTEMS,
                    workers=bench_scale["workers"],
                    n_lines=bench_scale["n_lines"],
                    endurance_mean=bench_scale["endurance_mean"],
                    endurance_cov=cov,
                    max_writes=4_000_000,
                    config_overrides=overrides,
                ).run(WORKLOADS, seed=0)
                for backend, overrides in BACKEND_OVERRIDES.items()
            }
            for workload in WORKLOADS:
                for label, system, backend in VARIANTS:
                    result = grids[backend][workload][system]
                    breakdown = result.energy_breakdown()
                    points.append({
                        "label": label,
                        "system": system,
                        "backend": backend,
                        "workload": workload,
                        "endurance_cov": cov,
                        "writes_issued": result.writes_issued,
                        "failed": result.failed,
                        "deaths": result.stats.deaths,
                        "revivals": result.stats.revivals,
                        "avg_faults_per_dead_block":
                            result.avg_faults_per_dead_block,
                        "pad_table_writes": result.stats.pad_table_writes,
                        "energy_per_write_pj": breakdown.per_write_pj,
                        "pad_table_pj": breakdown.pad_table_pj,
                    })
        return points

    points = benchmark.pedantic(measure, rounds=1, iterations=1)

    if default_scale:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_wolfram.json").write_text(
            json.dumps({"points": points}, indent=2) + "\n"
        )

    by_key = {(p["endurance_cov"], p["workload"], p["label"]): p
              for p in points}

    lines = []
    for cov in COVS:
        lines.append(f"CoV = {cov}  (fig10/fig12-style, WoLFRaM vs Start-Gap)")
        lines.append(
            f"{'workload':9}{'variant':25}{'writes':>9}{'norm':>7}"
            f"{'deaths':>8}{'faults/blk':>11}{'PAD writes':>11}"
        )
        for workload in WORKLOADS:
            base = by_key[(cov, workload, "comp_wf/startgap")]
            for label, _, _ in VARIANTS:
                p = by_key[(cov, workload, label)]
                norm = p["writes_issued"] / base["writes_issued"]
                lines.append(
                    f"{workload:9}{label:25}{p['writes_issued']:>9d}"
                    f"{norm:>7.2f}{p['deaths']:>8d}"
                    f"{p['avg_faults_per_dead_block']:>11.1f}"
                    f"{p['pad_table_writes']:>11d}"
                )
        lines.append("")
    lines.append("norm = writes-to-failure over comp_wf/startgap, same "
                 "workload and CoV")
    report("wolfram_backend", "\n".join(lines))

    for p in points:
        assert p["failed"], f"{p['label']}/{p['workload']} never failed"
        if p["backend"] == "wolfram":
            assert p["pad_table_writes"] > 0
            assert p["pad_table_pj"] > 0
        else:
            assert p["pad_table_writes"] == 0
    for cov in COVS:
        for workload in WORKLOADS:
            base = by_key[(cov, workload, "comp_wf/startgap")]
            pad = by_key[(cov, workload, "comp_wf/wolfram")]
            # The backends implement the same 1-relocation-per-psi
            # overhead budget; lifetimes must land in the same regime
            # (the paper's figures separate *systems* by multiples).
            ratio = pad["writes_issued"] / base["writes_issued"]
            assert 0.5 <= ratio <= 2.0, (
                f"backend lifetime ratio {ratio:.2f} out of band "
                f"({workload}, cov={cov})"
            )
            # Spare pools never materially hurt lifetime on either
            # substrate (a small pool on a small memory can land within
            # run-to-run noise of its plain twin, so the bound carries
            # a 5% tolerance rather than strict monotonicity).
            for backend in ("startgap", "wolfram"):
                plain = by_key[(cov, workload, f"comp_wf/{backend}")]
                spared = by_key[(cov, workload, f"comp_wf+spares/{backend}")]
                assert spared["writes_issued"] >= 0.95 * plain["writes_issued"]
