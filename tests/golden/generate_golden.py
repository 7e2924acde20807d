"""Regenerate the golden-trace equivalence fixture.

Run from the repo root against a known-good write path::

    PYTHONPATH=src python tests/golden/generate_golden.py

The fixture pins the externally observable behaviour of the four
evaluated systems on a fixed seeded trace: the full ``WriteResult``
sequence (as a SHA-256 digest), the final dead fraction and stats, and
a small lifetime comparison.  ``test_golden_trace.py`` replays the same
trace through the current write path and asserts bit-for-bit equality,
so any refactor of the controller/engine seam that changes semantics
fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core import EVALUATED_SYSTEMS, CompressedPCMController
from repro.engine import SweepRunner, resolve_config
from repro.pcm import EnduranceModel
from repro.traces import SyntheticWorkload, get_profile

FIXTURE = Path(__file__).parent / "golden_trace.json"

TRACE_WORKLOAD = "gcc"
TRACE_LINES = 48
TRACE_WRITES = 4000
TRACE_SEED = 7
ENDURANCE_MEAN = 40.0
ENDURANCE_COV = 0.15

COMPARISON_WORKLOAD = "milc"
COMPARISON_LINES = 48
COMPARISON_ENDURANCE = 40.0
COMPARISON_SEED = 3
COMPARISON_MAX_WRITES = 4_000_000


def result_row(result) -> list:
    return [
        result.physical,
        int(result.compressed),
        result.size_bytes,
        result.window_start,
        result.flips,
        int(result.died),
        int(result.revived),
        int(result.lost),
        result.heuristic_step,
    ]


def replay(system: str) -> dict:
    config = resolve_config(system, intra_counter_limit=64)
    workload = SyntheticWorkload(
        get_profile(TRACE_WORKLOAD), n_lines=TRACE_LINES, seed=TRACE_SEED
    )
    controller = CompressedPCMController(
        config=config,
        n_lines=TRACE_LINES,
        endurance_model=EnduranceModel(mean=ENDURANCE_MEAN, cov=ENDURANCE_COV),
        rng=np.random.default_rng(TRACE_SEED + 1),
    )
    digest = hashlib.sha256()
    for write in workload.iter_writes(TRACE_WRITES):
        row = result_row(controller.write(write.line, write.data))
        digest.update(json.dumps(row).encode())
    stats = controller.stats
    return {
        "write_results_sha256": digest.hexdigest(),
        "dead_fraction": controller.dead_fraction,
        "avg_faults_per_dead_block": controller.average_faults_per_dead_block(),
        "stats": {
            "demand_writes": stats.demand_writes,
            "gap_move_writes": stats.gap_move_writes,
            "compressed_writes": stats.compressed_writes,
            "uncompressed_writes": stats.uncompressed_writes,
            "lost_writes": stats.lost_writes,
            "total_flips": stats.total_flips,
            "set_flips": stats.set_flips,
            "reset_flips": stats.reset_flips,
            "window_slides": stats.window_slides,
            "deaths": stats.deaths,
            "revivals": stats.revivals,
            "heuristic_steps": {
                str(step): count
                for step, count in sorted(stats.heuristic_steps.items())
            },
            "start_pointer_updates": stats.start_pointer_updates,
            "encoding_updates": stats.encoding_updates,
            "sc_updates": stats.sc_updates,
        },
    }


def lifetime_comparison() -> dict:
    runner = SweepRunner(
        n_lines=COMPARISON_LINES,
        endurance_mean=COMPARISON_ENDURANCE,
        max_writes=COMPARISON_MAX_WRITES,
    )
    results = runner.run_comparison(COMPARISON_WORKLOAD, seed=COMPARISON_SEED)
    return {
        system: {
            "writes_issued": result.writes_issued,
            "failed": result.failed,
            "dead_fraction": result.dead_fraction,
            "deaths": result.stats.deaths,
            "revivals": result.stats.revivals,
            "total_flips": result.stats.total_flips,
        }
        for system, result in results.items()
    }


def main() -> None:
    fixture = {
        "trace": {
            "workload": TRACE_WORKLOAD,
            "n_lines": TRACE_LINES,
            "writes": TRACE_WRITES,
            "seed": TRACE_SEED,
            "endurance_mean": ENDURANCE_MEAN,
            "endurance_cov": ENDURANCE_COV,
        },
        "systems": {system: replay(system) for system in EVALUATED_SYSTEMS},
        "comparison": {
            "workload": COMPARISON_WORKLOAD,
            "n_lines": COMPARISON_LINES,
            "endurance_mean": COMPARISON_ENDURANCE,
            "seed": COMPARISON_SEED,
            "max_writes": COMPARISON_MAX_WRITES,
            "results": lifetime_comparison(),
        },
    }
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
