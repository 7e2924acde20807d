"""Layered host-throughput benchmark of the PCM reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady_batch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that alternates untraced and traced rounds and reports the
per-layer metrics (see BENCHMARK.json and perfbench/README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks every
workload for the benchmark's own tests.

Host speed drifts on the benchmark machine, so every timed chunk is
scaled by the reference loop of :mod:`probe` timed around it, and the
per-chunk lower quartiles over all rounds of a run are summed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from probe import PROBE_REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up measurements per run (each in a fresh interpreter).
SETUP_REPEATS = 9

#: A run starts no new round after this many wall seconds, so it ends
#: well within its time limit even on a slow host.
WALL_LIMIT_S = 120.0


@dataclass
class RoundResult:
    traced: bool
    #: Per chunk: (requests, wall s, CPU s, reference-loop CPU s).
    chunks: list[tuple[int, float, float, float]]
    totals: dict
    errors: list[str]
    peak_mb: float
    layers: dict | None = None
    table: dict | None = field(default=None, repr=False)


def run_round(workload, seed, inputs, tracer=None) -> RoundResult:
    """Build, drive chunk by chunk, then verify one round."""
    uninstall = None
    if tracer is not None:
        tracer.clear()
        tracer.phase = 1
        uninstall = tracing.install(tracer)
    try:
        current = workload.open(seed, inputs)
        steps = current.steps()
        chunks = []
        before = probe()
        while True:
            # Collect before every chunk, so the collector's automatic
            # passes fall at the same points of every round.
            gc.collect()
            cpu = current.cpu_seconds()
            wall = time.perf_counter()
            if tracer is not None:
                tracer.phase = 0
            done = next(steps, None)
            wall = time.perf_counter() - wall
            cpu = current.cpu_seconds() - cpu
            if tracer is not None:
                tracer.phase = 1
            if done is None:
                break
            after = probe()
            chunks.append((done, wall, cpu, (before + after) / 2))
            before = after
        totals, errors, peak = current.finish()
        result = RoundResult(tracer is not None, chunks, totals, errors, peak)
        if tracer is not None:
            workers = tracing.collect_workers(tracer, getattr(workload, "shards", 0))
            result.table = tracing.merge(tracer, workers)
            result.layers = tracing.summarize(result.table, tracer.names)
    finally:
        if uninstall is not None:
            uninstall()
    return result


def chunk_quartiles(rounds: list[RoundResult], value) -> float:
    """Sum over chunk positions of the lower quartile over rounds of ``value``.

    Interference from the host mostly slows a chunk down.  Over the same
    five ``fleet_mixed`` runs, the normalised rate spread 3.1 % between
    runs with the lower quartile and 5.8 % with the median (3.6 % and
    4.3 % over eight ``steady_batch`` runs).
    """
    positions = len(rounds[0].chunks)
    return sum(
        float(np.quantile([value(r.chunks[i]) for r in rounds], 0.25))
        for i in range(positions)
    )


def rates(rounds: list[RoundResult]) -> dict[str, float]:
    """Normalised, raw wall and raw CPU request rates of some rounds."""
    requests = sum(chunk[0] for chunk in rounds[0].chunks)
    return {
        "normalised": requests / chunk_quartiles(
            rounds, lambda c: c[2] * PROBE_REFERENCE_S / c[3]
        ),
        "wall": requests / chunk_quartiles(rounds, lambda c: c[1]),
        "cpu": requests / chunk_quartiles(rounds, lambda c: c[2]),
    }


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def measure_setup(args) -> float:
    """Set-up seconds, once, in a fresh interpreter."""
    command = [
        sys.executable, str(HERE / "setup_probe.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def consistency_errors(rounds: list[RoundResult], workload, args) -> list[str]:
    """Exact counts must repeat: across rounds, traced or not, and pins."""
    from workloads import DEFAULT_SEED, PINNED

    errors = []
    first = rounds[0]
    for other in rounds[1:]:
        if [c[0] for c in other.chunks] != [c[0] for c in first.chunks]:
            errors.append("chunk request counts differ between rounds")
        if other.totals != first.totals:
            errors.append("simulated totals differ between rounds")
    traced = [r for r in rounds if r.traced]
    exact = [
        {name: (v["calls"], v["items"], v["counted"]) for name, v in r.layers.items()}
        for r in traced
    ]
    if any(counts != exact[0] for counts in exact[1:]):
        errors.append("traced call counts differ between rounds")
    if args.seed == DEFAULT_SEED and not args.tiny:
        for key, want in PINNED[workload.name].items():
            if first.totals.get(key) != want:
                errors.append(
                    f"pinned total {key}: got {first.totals.get(key)}, want {want}"
                )
    return errors


def layer_metrics(
    traced: list[RoundResult], untraced: list[RoundResult], names: list[str]
) -> dict:
    """The per-layer metrics, named ``<layer>.<call>.<stat>``."""
    layers = traced[-1].layers
    totals = traced[-1].totals

    def self_s(name: str) -> float:
        return statistics.median(r.layers[name]["self_s"] for r in traced)

    def calls(name: str) -> int:
        return layers[name]["calls"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # Requests a core.write_batch call handed to the serial write loop.
    table = traced[-1].table
    name, parent = table["name"], table["parent"]
    nested = (name == names.index("core.write")) & (table["phase"] == 0) & (parent >= 0)
    fallback = int((name[parent[nested]] == names.index("core.write_batch")).sum())
    barriers = (
        totals["barrier_gap_move"] + totals["barrier_collision"]
        + totals["barrier_ineligible_row"]
    )
    probes = [c[3] for r in traced + untraced for c in r.chunks]
    untraced_rate = rates(untraced)
    overhead = chunk_quartiles(traced, lambda c: c[2] / c[3]) / chunk_quartiles(
        untraced, lambda c: c[2] / c[3]
    ) - 1
    tier_reads = calls("tier.read")
    metrics = {
        "lifetime.run.self_s": (self_s("lifetime.run"), "s"),
        "lifetime.writes": (totals.get("writes", 0), "count"),
        "service.submit.self_s": (self_s("service.submit"), "s"),
        "service.read.self_s": (self_s("service.read"), "s"),
        "service.read.calls": (calls("service.read"), "count"),
        "service.requests_routed": (totals.get("requests_routed", 0), "count"),
        "tier.write_batch.self_s": (self_s("tier.write_batch"), "s"),
        "tier.read.self_s": (self_s("tier.read"), "s"),
        "tier.absorbed_share": (share(
            totals["tier_pcm_writes_avoided"], layers["tier.write_batch"]["items"]
        ), "ratio"),
        "tier.read_hit_share": (share(
            totals["tier_hits"] - totals["tier_coalesced_writes"], tier_reads
        ), "ratio"),
        "core.write.self_s": (self_s("core.write"), "s"),
        "core.write.calls": (calls("core.write"), "count"),
        "core.write_batch.self_s": (self_s("core.write_batch"), "s"),
        "core.read.self_s": (self_s("core.read"), "s"),
        "core.serial_fallback_share": (
            share(fallback, layers["core.write_batch"]["items"]), "ratio"
        ),
        "engine.scheduler.run.self_s": (self_s("engine.scheduler.run"), "s"),
        "engine.scheduler.waves": (totals["batch_waves"], "count"),
        "engine.scheduler.wave_width_mean": (
            share(totals["batch_wave_ops"], totals["batch_waves"]), "ops/wave"
        ),
        "engine.scheduler.barrier_gap_move": (totals["barrier_gap_move"], "count"),
        "engine.scheduler.barrier_collision": (totals["barrier_collision"], "count"),
        "engine.scheduler.barrier_ineligible_row": (
            totals["barrier_ineligible_row"], "count"
        ),
        "engine.scheduler.fast_path_share": (share(
            totals["batch_wave_ops"], totals["batch_wave_ops"] + barriers
        ), "ratio"),
        "engine.pipeline.write_line.self_s": (self_s("engine.pipeline.write_line"), "s"),
        "engine.pipeline.write_line.calls": (calls("engine.pipeline.write_line"), "count"),
        "engine.pipeline.program_rows.self_s": (
            self_s("engine.pipeline.program_rows"), "s"
        ),
        "engine.stages.place.self_s": (self_s("engine.stages.place"), "s"),
        "compression.compress.self_s": (self_s("compression.compress"), "s"),
        "compression.compress_batch.self_s": (self_s("compression.compress_batch"), "s"),
        "compression.bestof.calls": (layers["compression.bestof"]["counted"], "count"),
        "compression.cache_hit_share": (share(
            totals["compression_cache_hits"],
            totals["compression_cache_hits"] + totals["compression_cache_misses"],
        ), "ratio"),
        "compression.decompress.self_s": (self_s("compression.decompress"), "s"),
        "pcm.write.self_s": (self_s("pcm.write"), "s"),
        "pcm.write.calls": (calls("pcm.write"), "count"),
        "pcm.write_rows.self_s": (self_s("pcm.write_rows"), "s"),
        "pcm.write_rows.rows_per_call": (share(
            layers["pcm.write_rows"]["items"], calls("pcm.write_rows")
        ), "rows/call"),
        "pcm.total_flips": (totals["total_flips"], "count"),
        "correction.verify.self_s": (self_s("correction.verify"), "s"),
        "correction.commit.self_s": (self_s("correction.commit"), "s"),
        "correction.commit_repairs.self_s": (self_s("correction.commit_repairs"), "s"),
        "correction.repair_commits": (totals["repair_commits"], "count"),
        "energy.build_target.self_s": (self_s("energy.build_target"), "s"),
        "energy.decode_read.self_s": (self_s("energy.decode_read"), "s"),
        "energy.encoded_words": (totals["encoded_words"], "count"),
        "wearleveling.gap_move_writes": (totals["gap_move_writes"], "count"),
        "bench.host_probe_ms": (statistics.median(probes) * 1e3, "ms"),
        "bench.host_probe_spread": (spread(probes), "ratio"),
        "bench.requests_per_s_raw": (untraced_rate["wall"], "1/s"),
        "bench.requests_per_cpu_s_raw": (untraced_rate["cpu"], "1/s"),
        "bench.tracing_overhead_share": (overhead, "ratio"),
        "bench.traced_round_cpu_s": (
            statistics.median(sum(c[2] for c in r.chunks) for r in traced), "s"
        ),
        "bench.unattributed_cpu_share": (statistics.median(
            1 - sum(v["self_s"] for v in r.layers.values())
            / sum(c[2] for c in r.chunks)
            for r in traced
        ), "ratio"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.inputs(args.seed)
    # The inputs live for the whole run: keep them out of every
    # collector pass.
    gc.collect()
    gc.freeze()
    setup: list[float] = []
    # Only the untraced run reports set-up time.
    setup_repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.dump_dir = str(OUT_DIR)
    rounds: list[RoundResult] = []
    timed = 0.0
    while True:
        # Set-up samples are spread over the run, between rounds, so
        # their median does not hang on one phase of the host's drift.
        due = min(setup_repeats, 1 + int(
            (setup_repeats - 1) * min(timed / args.seconds, 1)
        ))
        while len(setup) < due:
            setup.append(measure_setup(args))
        # The traced run alternates untraced and traced rounds.
        traced = bool(args.trace) and len(rounds) % 2 == 1
        result = run_round(workload, args.seed, inputs, tracer if traced else None)
        rounds.append(result)
        timed += sum(c[1] for c in result.chunks)
        enough = timed >= args.seconds and (not args.trace or len(rounds) >= 2)
        if enough or time.perf_counter() - started > WALL_LIMIT_S:
            break
    while len(setup) < setup_repeats:
        setup.append(measure_setup(args))

    errors = [e for r in rounds for e in r.errors]
    errors += consistency_errors(rounds, workload, args)
    untraced = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    attempted = sum(c[0] for r in rounds for c in r.chunks)
    rate = rates(untraced)
    probes = [c[3] for r in rounds for c in r.chunks]
    audit = {
        "bench.host_probe_ms": statistics.median(probes) * 1e3,
        "bench.host_probe_spread": spread(probes),
        "bench.requests_per_s_raw": rate["wall"],
        "bench.requests_per_cpu_s_raw": rate["cpu"],
        "bench.setup_s_samples": setup,
        "rounds": len(rounds),
    }
    if args.trace:
        metrics = layer_metrics(traced_rounds, untraced, tracer.names)
    else:
        metrics = {
            "requests_per_s": (rate["normalised"], "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r.peak_mb for r in rounds), "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "errors": errors[:50], "audit": audit,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "rounds": [
            {"traced": r.traced, "chunks": r.chunks, "peak_mb": r.peak_mb}
            for r in rounds
        ],
        "totals": rounds[0].totals,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced_rounds:
        np.savez(OUT_DIR / f"spans-{stem}.npz", names=np.array(tracer.names),
                 **traced_rounds[-1].table)

    for error in errors[:20]:
        print(f"check failed: {error}")
    print("audit: " + json.dumps(audit))
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
