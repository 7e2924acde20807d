"""Command-line interface: ``python -m repro <experiment> [options]``.

Subcommands map to the paper's experiments:

==============  =====================================================
``lifetime``    Figure 10 / Table IV for chosen workloads and systems
``montecarlo``  Figure 9 tolerable-fault crossings
``compress``    Figures 3/6/11 compression statistics per workload
``flips``       Figure 5 flip-direction split per workload
``perf``        Section V-B read-latency / slowdown model
``energy``      energy x lifetime x throughput Pareto sweep (repro.energy)
``trace``       generate and save a synthetic write-back trace
``systems``     list registered ``SystemSpec``s and their stages
``fuzz``        differential fuzzing: fast pipeline vs reference oracle
``serve``       sharded multi-process memory service driven end to end
``workload``    generate and save a fleet-shaped request stream
==============  =====================================================
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .analysis import (
    cdf_fraction_below,
    classify_flip_impact,
    fig3_compressed_sizes,
    fig6_size_change_probability,
    fig11_max_size_cdf,
    run_full_study,
)
from .core import EVALUATED_SYSTEMS, ControllerStats
from .correction import PAPER_SCHEMES, make_scheme
from .engine import get_system, resolve_config, system_names
from .faultinjection import tolerable_faults
from .perf import PerformanceModel
from .service.workloads import SERVICE_WORKLOADS
from .traces import WORKLOAD_ORDER, SyntheticWorkload, get_profile, save_trace


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return parsed


def _nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not parsed >= 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _data_size(value: str) -> int:
    parsed = int(value)
    if not 1 <= parsed <= 64:
        raise argparse.ArgumentTypeError("must be in 1..64")
    return parsed


def _add_tier_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tier-lines", type=_nonnegative_int, default=None, metavar="LINES",
        help="content-aware DRAM front-tier capacity in 64-byte lines "
        "(repro.tier; default: the system's own, which is 0 = no tier "
        "for every system but comp_wf_hybrid)",
    )


def _config_overrides(args: argparse.Namespace) -> dict[str, object]:
    """Knobs set by ``--tier-lines``/``--tier``, ``--wl-backend`` and
    ``--banks`` (an unset option keeps each system's own value; 0 means
    0)."""
    options = vars(args)
    knobs = ("tier_lines", "wl_backend", "n_banks")
    return {knob: options[knob] for knob in knobs if options.get(knob) is not None}


def _add_workloads_option(parser: argparse.ArgumentParser, default: list[str]) -> None:
    parser.add_argument(
        "--workloads", nargs="+", default=default,
        choices=sorted(WORKLOAD_ORDER), metavar="APP",
        help=f"workloads (default: {' '.join(default)})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for the DSN'17 PCM "
        "compression / hard-error-tolerance paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lifetime = subparsers.add_parser("lifetime", help="Figure 10 / Table IV")
    _add_workloads_option(lifetime, ["milc", "gcc"])
    lifetime.add_argument("--systems", nargs="+", default=list(EVALUATED_SYSTEMS),
                          choices=system_names(), metavar="SYSTEM",
                          help="registered systems (see `repro systems`)")
    lifetime.add_argument("--lines", type=_positive_int, default=96)
    lifetime.add_argument("--endurance", type=_positive_float, default=60.0)
    lifetime.add_argument("--cov", type=_nonnegative_float, default=0.15)
    lifetime.add_argument("--seed", type=int, default=0)
    lifetime.add_argument("--workers", type=_positive_int, default=1,
                          help="worker processes for the (workload x system) "
                          "sweep (1 = serial; same results either way)")
    lifetime.add_argument("--batch", type=_positive_int, default=1,
                          help="write-backs per controller call; > 1 drains "
                          "each run through the out-of-order batch scheduler "
                          "(bit-identical results)")
    lifetime.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                          help="write durable per-run checkpoints and JSONL "
                          "heartbeat telemetry under DIR (one "
                          "<workload>-<system>/ subdirectory per run)")
    lifetime.add_argument("--checkpoint-interval", type=_positive_int,
                          default=None, metavar="WRITES",
                          help="writes between checkpoints (default: "
                          "100000; requires --checkpoint-dir)")
    lifetime.add_argument("--resume", action="store_true",
                          help="resume each run from its latest checkpoint "
                          "under --checkpoint-dir (bit-identical to an "
                          "uninterrupted run)")
    lifetime.add_argument("--progress", action="store_true",
                          help="print per-run heartbeat progress lines to "
                          "stderr")
    lifetime.add_argument("--energy", action="store_true",
                          help="also print each run's write-path energy "
                          "(pJ/write via repro.energy, correction logic "
                          "included)")
    _add_tier_option(lifetime)

    montecarlo = subparsers.add_parser("montecarlo", help="Figure 9 crossings")
    montecarlo.add_argument("--sizes", nargs="+", type=_data_size, default=[16, 32, 64])
    montecarlo.add_argument("--trials", type=_positive_int, default=150)
    montecarlo.add_argument("--schemes", nargs="+", default=list(PAPER_SCHEMES))
    montecarlo.add_argument("--seed", type=int, default=0)

    compress = subparsers.add_parser("compress", help="Figures 3/6/11 statistics")
    _add_workloads_option(compress, list(WORKLOAD_ORDER))
    compress.add_argument("--writes", type=_positive_int, default=3000)
    compress.add_argument("--seed", type=int, default=0)

    flips = subparsers.add_parser("flips", help="Figure 5 flip split")
    _add_workloads_option(flips, list(WORKLOAD_ORDER))
    flips.add_argument("--writes", type=_positive_int, default=4000)
    flips.add_argument("--seed", type=int, default=2)

    perf = subparsers.add_parser("perf", help="Section V-B overheads")
    _add_workloads_option(perf, list(WORKLOAD_ORDER))
    perf.add_argument("--samples", type=_positive_int, default=1000)

    energy = subparsers.add_parser(
        "energy", help="energy x lifetime x throughput Pareto sweep"
    )
    _add_workloads_option(energy, ["milc", "gcc", "lbm"])
    energy.add_argument("--systems", nargs="+", default=None,
                        choices=system_names(), metavar="SYSTEM",
                        help="systems to sweep (default: the evaluated four "
                        "plus the energy-encoding variants)")
    energy.add_argument("--lines", type=_positive_int, default=96)
    energy.add_argument("--endurance", type=_positive_float, default=60.0)
    energy.add_argument("--max-writes", type=_positive_int, default=2_000_000,
                        help="per-run write budget (runs stop early at the "
                        "failure criterion)")
    energy.add_argument("--samples", type=_positive_int, default=500,
                        help="write-stream samples for the read-mix estimate")
    energy.add_argument("--seed", type=int, default=0)
    energy.add_argument("--json", action="store_true",
                        help="print the point set as JSON (the "
                        "BENCH_energy.json record shape)")
    energy.add_argument("--out", metavar="FILE", default=None,
                        help="also write the JSON point set to FILE")

    trace = subparsers.add_parser("trace", help="generate a trace file")
    trace.add_argument("workload", choices=sorted(WORKLOAD_ORDER))
    trace.add_argument("output", help="output path (binary trace)")
    trace.add_argument("--lines", type=_positive_int, default=1024)
    trace.add_argument("--writes", type=_positive_int, default=100_000)
    trace.add_argument("--seed", type=int, default=0)

    systems = subparsers.add_parser(
        "systems", help="list registered SystemSpecs and their stages"
    )
    systems.add_argument("--tag", default=None,
                         choices=sorted({tag for name in system_names()
                                         for tag in get_system(name).tags}),
                         help="only show specs carrying this tag")
    systems.add_argument("--stages", action="store_true",
                         help="also print each system's stage composition")

    report = subparsers.add_parser(
        "report", help="print saved benchmark results (benchmarks/results/)"
    )
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--only", nargs="*", default=None,
                        help="substring filters on result names")

    fuzz = subparsers.add_parser(
        "fuzz", help="differential campaigns: fast pipeline vs loop oracle"
    )
    fuzz.add_argument("--writes", type=_positive_int, default=2000,
                      help="writes per (system, scheme) campaign")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--systems", nargs="+", default=None,
                      choices=system_names(), metavar="SYSTEM",
                      help="systems to fuzz (default: all registered)")
    fuzz.add_argument("--schemes", nargs="+",
                      default=["ecp6", "safer32", "aegis"],
                      metavar="SCHEME",
                      help="correction schemes per system (default: "
                      "ecp6 safer32 aegis)")
    fuzz.add_argument("--lines", type=_positive_int, default=24,
                      help="logical lines per campaign memory")
    fuzz.add_argument("--banks", dest="n_banks", type=_positive_int,
                      default=4)
    fuzz.add_argument("--endurance", type=_positive_float, default=32.0,
                      help="mean cell endurance (small = wear fast, so "
                      "fault paths are exercised within the campaign)")
    fuzz.add_argument("--cov", type=_nonnegative_float, default=0.2)
    fuzz.add_argument("--corpus", metavar="DIR", default=None,
                      help="write failing repro seeds (JSON) under DIR")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop starting/continuing campaigns past this "
                      "wall-time budget (skipped campaigns are reported)")
    fuzz.add_argument("--check-state-every", type=_positive_int, default=64,
                      help="writes between full-memory oracle sweeps (every "
                      "write still gets the per-write diff)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip ddmin shrinking of failing sequences")
    fuzz.add_argument("--replay", metavar="FILE", default=None,
                      help="re-run one corpus entry instead of fuzzing")
    fuzz.add_argument("--shards", type=_positive_int, default=1,
                      help="partition each campaign memory into K shards, "
                      "run the lockstep oracle per shard, and assert the "
                      "merged fleet view (default: 1 = unsharded)")
    fuzz.add_argument("--batch", type=_positive_int, default=1,
                      help="group every K stream ops into one write_batch "
                      "call per shard, driving the out-of-order scheduler "
                      "under the oracle (default: 1 = serial writes)")
    fuzz.add_argument("--tier", dest="tier_lines", type=_nonnegative_int,
                      default=None, metavar="LINES",
                      help="front each lockstep pair with a DRAM tier of "
                      "this capacity, validating the post-tier PCM stream "
                      "(default: each system's own, which is 0 = no tier "
                      "for every system but comp_wf_hybrid)")
    fuzz.add_argument("--wl-backend", dest="wl_backend", default=None,
                      choices=("startgap_freep", "wolfram"),
                      help="force every campaign onto this wear-leveling "
                      "backend (default: each system's own configured "
                      "backend)")

    serve = subparsers.add_parser(
        "serve", help="sharded multi-process PCM memory service"
    )
    serve.add_argument("--shards", type=_positive_int, default=4,
                       help="shard worker processes (default: 4)")
    serve.add_argument("--lines", type=_positive_int, default=256,
                       help="global logical address-space size")
    serve.add_argument("--system", default="comp_wf",
                       choices=system_names(), metavar="SYSTEM",
                       help="registered system every shard runs "
                       "(default: comp_wf)")
    serve.add_argument("--workload", default="memcached",
                       choices=SERVICE_WORKLOADS, metavar="PROFILE",
                       help="request-stream shape (default: memcached)")
    serve.add_argument("--requests", type=_positive_int, default=20_000,
                       help="write requests to drive through the fleet")
    serve.add_argument("--batch", type=_positive_int, default=64,
                       help="requests routed per submit round")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--endurance", type=_positive_float, default=100.0)
    serve.add_argument("--cov", type=_nonnegative_float, default=0.15)
    serve.add_argument("--banks", dest="n_banks", type=_positive_int,
                       default=8)
    serve.add_argument("--telemetry-dir", metavar="DIR", default=None,
                       help="write shard-<i>/events.jsonl streams and the "
                       "aggregated fleet.jsonl under DIR")
    serve.add_argument("--heartbeat-interval", type=_positive_int,
                       default=1000, metavar="REQUESTS",
                       help="requests between per-shard heartbeats")
    serve.add_argument("--fleet-interval", type=_positive_int,
                       default=1000, metavar="REQUESTS",
                       help="routed requests between fleet heartbeats")
    serve.add_argument("--retries", type=_nonnegative_int, default=2,
                       help="worker deaths absorbed per shard before the "
                       "service fails (recovery is exact replay)")
    serve.add_argument("--inline", action="store_true",
                       help="run the fleet in-process (no worker processes; "
                       "bit-identical results, handy for debugging)")
    serve.add_argument("--json", action="store_true",
                       help="print the final fleet result as JSON")
    _add_tier_option(serve)

    workload = subparsers.add_parser(
        "workload", help="generate and save a fleet-shaped request stream "
        "(run one with `serve --workload`)"
    )
    workload.add_argument("profile", choices=SERVICE_WORKLOADS,
                          help="request-stream shape")
    workload.add_argument("output",
                          help="output path (binary trace, global addresses)")
    workload.add_argument("--lines", type=_positive_int, default=256,
                          help="global logical address-space size")
    workload.add_argument("--requests", type=_positive_int, default=20_000)
    workload.add_argument("--seed", type=int, default=0)

    return parser


def cmd_lifetime(args: argparse.Namespace) -> None:
    """Run the Figure 10 / Table IV experiment."""
    systems = tuple(args.systems)
    if "baseline" not in systems:
        systems = ("baseline",) + systems
    print(f"{'workload':12}" + "".join(f"{s:>10}" for s in systems if s != "baseline")
          + f"{'base months':>13}{'WF months':>11}")
    run_stats: list[ControllerStats] = []
    energy_rows: list[tuple[str, str, object]] = []
    studies = run_full_study(
        tuple(args.workloads), systems=systems, n_lines=args.lines,
        endurance_mean=args.endurance, endurance_cov=args.cov,
        seed=args.seed, workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval or 0,
        resume=args.resume, progress=args.progress,
        batch=args.batch, config_overrides=_config_overrides(args),
    )
    for workload, study in studies.items():
        row = f"{workload:12}"
        for system in systems:
            if system != "baseline":
                row += f"{study.normalized[system]:10.2f}"
        row += f"{study.months('baseline'):13.1f}"
        wf = "comp_wf" if "comp_wf" in systems else systems[-1]
        row += f"{study.months(wf):11.1f}"
        print(row)
        for system, result in study.results.items():
            run_stats.append(result.stats)
            if args.energy:
                scheme = resolve_config(system).correction_scheme
                energy_rows.append(
                    (workload, system, result.energy_breakdown(scheme=scheme))
                )
    if energy_rows:
        print(f"{'workload':12}{'system':>14}{'pJ/write':>10}"
              f"{'array':>9}{'flags':>8}{'logic':>8}")
        for workload, system, b in energy_rows:
            writes = b.writes or 1
            print(f"{workload:12}{system:>14}{b.per_write_pj:10.1f}"
                  f"{b.array_pj / writes:9.1f}{b.flag_pj / writes:8.2f}"
                  f"{b.correction_pj / writes:8.2f}")
    total = ControllerStats.merge_all(run_stats)
    if total.compression_cache_hits or total.compression_cache_misses:
        print(f"compression cache: {total.compression_cache_hits} hits / "
              f"{total.compression_cache_misses} misses "
              f"({total.compression_cache_hit_rate:.1%} hit rate)")
    if total.batch_waves:
        print(f"batch scheduler: {total.batch_wave_ops} writes in "
              f"{total.batch_waves} waves (mean width "
              f"{total.batch_wave_width_mean:.1f}, "
              f"max {total.batch_wave_width_max})")


def cmd_montecarlo(args: argparse.Namespace) -> None:
    """Run the Figure 9 tolerable-fault experiment."""
    schemes = [make_scheme(name) for name in args.schemes]
    print(f"{'data size':>10}" + "".join(f"{s.name:>14}" for s in schemes))
    for size in args.sizes:
        row = f"{size:>9}B"
        for scheme in schemes:
            row += f"{tolerable_faults(scheme, size, trials=args.trials, seed=args.seed):14.1f}"
        print(row)


def cmd_compress(args: argparse.Namespace) -> None:
    """Print Figures 3/6/11 compression statistics."""
    print(f"{'workload':12}{'BDI':>7}{'FPC':>7}{'BEST':>7}{'CR':>6}"
          f"{'P(size chg)':>13}{'<25B addr':>11}")
    for name in args.workloads:
        profile = get_profile(name)
        row = fig3_compressed_sizes(profile, writes=args.writes, seed=args.seed)
        change = fig6_size_change_probability(profile, writes=args.writes, seed=args.seed)
        values, cumulative = fig11_max_size_cdf(profile, writes=args.writes, seed=args.seed)
        below = cdf_fraction_below(values, cumulative, 25)
        print(f"{name:12}{row.bdi:7.1f}{row.fpc:7.1f}{row.best:7.1f}"
              f"{row.best_ratio:6.2f}{change:13.2f}{below:11.0%}")


def cmd_flips(args: argparse.Namespace) -> None:
    """Print the Figure 5 flip-direction split."""
    print(f"{'workload':12}{'increased':>11}{'untouched':>11}{'decreased':>11}")
    for name in args.workloads:
        result = classify_flip_impact(
            get_profile(name), writes=args.writes, seed=args.seed
        )
        print(f"{name:12}{result.increased:11.0%}{result.untouched:11.0%}"
              f"{result.decreased:11.0%}")


def cmd_perf(args: argparse.Namespace) -> None:
    """Print the Section V-B overhead model outputs."""
    model = PerformanceModel()
    print(f"{'workload':12}{'read overhead':>15}{'slowdown':>11}")
    for name in args.workloads:
        report = model.report(get_profile(name), samples=args.samples)
        print(f"{name:12}{report.read_latency_overhead:15.2%}{report.slowdown:11.3%}")


def cmd_energy(args: argparse.Namespace) -> int:
    """Run the energy x lifetime x throughput Pareto sweep."""
    import json as json_module
    from pathlib import Path

    from .energy import run_energy_sweep

    points = run_energy_sweep(
        workloads=tuple(args.workloads),
        systems=tuple(args.systems) if args.systems else None,
        n_lines=args.lines, endurance_mean=args.endurance,
        max_writes=args.max_writes, seed=args.seed,
        mix_samples=args.samples,
    )
    payload = {"points": points}
    if args.out:
        Path(args.out).write_text(json_module.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json_module.dumps(payload, indent=2))
        return 0
    print(f"{'workload':10}{'system':16}{'pJ/write':>10}{'array':>9}"
          f"{'flags':>8}{'logic':>8}{'writes':>10}{'Mreads/s':>10}")
    for point in points:
        energy = point["energy"]
        writes = point["writes_issued"] or 1
        array = (energy["array_set_pj"] + energy["array_reset_pj"]) / writes
        flags = (energy["flag_set_pj"] + energy["flag_reset_pj"]) / writes
        logic = (
            energy["correction_check_pj"] + energy["correction_commit_pj"]
        ) / writes
        marker = "  *" if point["pareto"] else ""
        print(f"{point['workload']:10}{point['system']:16}"
              f"{point['energy_per_write_pj']:10.1f}{array:9.1f}"
              f"{flags:8.2f}{logic:8.2f}{point['writes_issued']:10d}"
              f"{point['throughput_mreads_per_s']:10.2f}{marker}")
    print("* = Pareto frontier (min pJ/write, max lifetime, max throughput)")
    if args.out:
        print(f"points written to {args.out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> None:
    """Generate and save a synthetic trace."""
    generator = SyntheticWorkload(
        get_profile(args.workload), n_lines=args.lines, seed=args.seed
    )
    trace = generator.generate_trace(args.writes)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} write-backs over {args.lines} lines "
          f"to {args.output}")


def cmd_systems(args: argparse.Namespace) -> None:
    """List the registered system specs and their stage composition."""
    names = system_names(args.tag)
    width = max(len(name) for name in names) + 2
    for spec in map(get_system, names):
        tags = ",".join(spec.tags)
        print(f"{spec.name:{width}}[{tags}] {spec.description}")
        if args.stages:
            for line in spec.stage_summary():
                print(f"{'':{width}}  {line}")


def cmd_report(args: argparse.Namespace) -> None:
    """Print saved benchmark result files."""
    from pathlib import Path

    directory = Path(args.results_dir)
    if not directory.is_dir():
        print(f"no results at {directory}; run `pytest benchmarks/ "
              "--benchmark-only` first")
        return
    for path in sorted(directory.glob("*.txt")):
        if args.only and not any(token in path.stem for token in args.only):
            continue
        print("=" * 72)
        print(path.stem)
        print("=" * 72)
        print(path.read_text().rstrip())
        print()


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run differential fuzzing campaigns (or replay a corpus entry)."""
    from .validate.fuzz import (
        normalize_scheme,
        replay_corpus_entry,
        run_fuzz,
        write_campaign_manifest,
    )

    if args.replay:
        error = replay_corpus_entry(args.replay)
        if error is None:
            print(f"{args.replay}: does not reproduce (bug fixed?)")
            return 0
        print(f"{args.replay}: still diverges")
        print(error)
        return 1

    def progress(campaign) -> None:
        if campaign.skipped:
            status = "SKIPPED (time budget)"
        elif campaign.divergence is not None:
            status = "DIVERGED"
        else:
            status = "ok"
        line = (f"{campaign.system:22} {campaign.scheme:12} "
                f"{campaign.writes_run:>6} writes  {status}")
        if campaign.corpus_path is not None:
            line += f"  -> {campaign.corpus_path}"
        print(line)

    report = run_fuzz(
        systems=tuple(args.systems) if args.systems else None,
        schemes=tuple(normalize_scheme(s) for s in args.schemes),
        writes=args.writes, seed=args.seed, lines=args.lines,
        endurance_mean=args.endurance,
        endurance_cov=args.cov, corpus_dir=args.corpus,
        time_budget=args.time_budget,
        check_state_every=args.check_state_every,
        shrink=not args.no_shrink, progress=progress,
        shards=args.shards, batch=args.batch,
        config_overrides=_config_overrides(args),
    )
    ran = [c for c in report.campaigns if not c.skipped]
    print(f"\n{len(ran)} campaigns, {sum(c.writes_run for c in ran)} writes, "
          f"{len(report.failures)} divergences, {len(report.skipped)} skipped "
          f"({report.elapsed_seconds:.1f}s)")
    if args.corpus:
        manifest = write_campaign_manifest(args.corpus, report, {
            "seed": args.seed, "writes": args.writes,
            "lines": args.lines, "banks": args.n_banks,
            "endurance_mean": args.endurance, "endurance_cov": args.cov,
            "shards": args.shards, "batch": args.batch,
            "tier_lines": args.tier_lines,
            "wl_backend": args.wl_backend,
            "systems": list(dict.fromkeys(c.system for c in report.campaigns)),
            "schemes": [normalize_scheme(s) for s in args.schemes],
        })
        print(f"manifest: {manifest}")
    if report.failures:
        for campaign in report.failures:
            print(f"\n== {campaign.system} / {campaign.scheme} ==")
            print(campaign.divergence)
        return 1
    return 0


def _print_fleet_summary(result, config) -> None:
    """Human-readable fleet summary printed by ``serve``."""
    from .energy import EnergyModel

    stats = result.stats
    print(f"fleet: {result.shards} shard(s), {result.total_lines} lines, "
          f"{result.requests_routed:,} requests routed, "
          f"{result.recoveries} recover(ies)")
    print(f"  stored={stats.stored_writes:,} "
          f"(compressed={stats.compressed_writes:,}) "
          f"lost={stats.lost_writes:,} deaths={stats.deaths} "
          f"revivals={stats.revivals} dead={result.dead_fraction:.4f}")
    # Fleet-level energy telemetry: the merged stats price exactly like
    # a single bookkeeper's (the breakdown is additive over the stats
    # monoid, pinned by tests/energy/test_model.py).
    breakdown = EnergyModel().breakdown(stats, scheme=config.correction_scheme)
    writes = breakdown.writes or 1
    print(f"  energy: {breakdown.per_write_pj:.1f} pJ/write "
          f"(array {breakdown.array_pj / writes:.1f}, "
          f"flags {breakdown.flag_pj / writes:.2f}, "
          f"correction logic {breakdown.correction_pj / writes:.2f})")
    for shard, (shard_stats, served) in enumerate(
        zip(result.shard_stats, result.shard_writes)
    ):
        print(f"  shard {shard}: {served:,} requests, "
              f"stored={shard_stats.stored_writes:,} "
              f"lost={shard_stats.lost_writes:,} "
              f"deaths={shard_stats.deaths}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded memory service and drive a workload through it."""
    import json as json_module

    from .service import MemoryService, ShardedController, run_workload

    config = resolve_config(args.system, **_config_overrides(args))
    if args.inline:
        fleet = ShardedController(
            config, args.lines, shards=args.shards,
            endurance_mean=args.endurance, endurance_cov=args.cov,
            seed=args.seed,
        )
        run_workload(fleet, args.workload, args.requests,
                     batch=args.batch, seed=args.seed)
        result = fleet.result()
    else:
        with MemoryService(
            config, args.lines, shards=args.shards,
            endurance_mean=args.endurance, endurance_cov=args.cov,
            seed=args.seed, telemetry_dir=args.telemetry_dir,
            heartbeat_interval=args.heartbeat_interval,
            fleet_interval=args.fleet_interval,
            retries=args.retries,
        ) as service:
            run_workload(service, args.workload, args.requests,
                         batch=args.batch, seed=args.seed)
            result = service.stop()
    if args.json:
        print(json_module.dumps(result.to_dict(), indent=2))
    else:
        _print_fleet_summary(result, config)
        if args.telemetry_dir:
            print(f"telemetry: {args.telemetry_dir}/fleet.jsonl + "
                  f"shard-<i>/events.jsonl")
    return 0


def cmd_workload(args: argparse.Namespace) -> None:
    """Generate and save a fleet-shaped request stream."""
    from .service import make_stream
    from .traces.trace import Trace

    stream = make_stream(args.profile, args.lines, args.seed)
    trace = Trace(workload=stream.name, n_lines=args.lines)
    trace.extend(stream.iter_requests(args.requests))
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} {args.profile} requests over "
          f"{args.lines} lines to {args.output}")


_COMMANDS = {
    "lifetime": cmd_lifetime,
    "montecarlo": cmd_montecarlo,
    "compress": cmd_compress,
    "flips": cmd_flips,
    "perf": cmd_perf,
    "energy": cmd_energy,
    "trace": cmd_trace,
    "systems": cmd_systems,
    "report": cmd_report,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "workload": cmd_workload,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lifetime" and args.checkpoint_dir is None:
        # The durability knobs are meaningless without a directory to
        # put checkpoints in; fail loudly instead of silently ignoring.
        if args.resume:
            parser.error("--resume requires --checkpoint-dir")
        if args.checkpoint_interval is not None:
            parser.error("--checkpoint-interval requires --checkpoint-dir")
    # Commands return an exit code or None (== success); ``fuzz`` uses a
    # non-zero code to fail CI on divergence.
    status = _COMMANDS[args.command](args)
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())
