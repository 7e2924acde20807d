"""Energy x lifetime x throughput Pareto sweep over registered systems.

One sweep runs every requested system on every workload to the failure
criterion, prices its counters through :class:`~repro.energy.model.
EnergyModel`, attaches the Section V-B read-throughput model, and marks
the per-workload Pareto frontier: the systems no other system beats on
energy (lower), lifetime (higher), *and* throughput (higher) at once.
``benchmarks/test_ablation_energy.py`` writes the result to
``BENCH_energy.json``; ``python -m repro energy`` prints it.
"""

from __future__ import annotations

from .model import EnergyModel

#: Read-path decode latency of the XOR-family encoders, CPU cycles.
#: One XOR against the selector-expanded mask -- the same order as
#: BDI's 1-cycle decompressor; charged only to encoded systems.
ENCODING_DECODE_CYCLES = 1

#: Default workload trio: the compressibility extremes the paper's
#: energy discussion leans on (milc near-uniform compressible, gcc
#: mixed, lbm barely compressible).
DEFAULT_WORKLOADS = ("milc", "gcc", "lbm")


def run_energy_sweep(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    systems: tuple[str, ...] | None = None,
    seed: int = 0,
    mix_samples: int = 500,
    model: EnergyModel | None = None,
    perf: PerformanceModel | None = None,
    **settings,
) -> list[dict]:
    """Run the sweep; returns one JSON-ready point dict per (system,
    workload) with ``pareto=True`` on each workload's frontier.

    ``systems=None`` sweeps the paper's four evaluated systems, then the
    ``energy``-tagged encoding variants.  ``settings`` are the other
    :class:`~repro.engine.SweepRunner` fields; absent scale settings
    take the sweep's: 128 lines, endurance 60, 2 M writes per run.
    Points are comparable *within* a workload (the frontier is marked
    per workload); cross-workload comparisons only make sense per
    metric.
    """
    # Deferred imports: the controller imports this package while
    # building encoders, so pulling the simulator stack in at module
    # scope would cycle through repro.core.
    from ..core.config import EVALUATED_SYSTEMS
    from ..engine.registry import resolve_config, system_names
    from ..engine.sweep import SweepRunner
    from ..perf.overhead import PerformanceModel, ReadMix, measure_read_mix
    from ..traces import get_profile

    names = tuple(systems) if systems else EVALUATED_SYSTEMS + system_names("energy")
    model = model or EnergyModel()
    perf = perf or PerformanceModel()
    grid = SweepRunner(systems=names, **{
        "n_lines": 128,
        "endurance_mean": 60.0,
        "max_writes": 2_000_000,
        **settings,
    }).run(workloads, seed)
    points: list[dict] = []
    for workload in workloads:
        mix = measure_read_mix(
            get_profile(workload), samples=mix_samples, seed=seed
        )
        group: list[dict] = []
        for name in names:
            config = resolve_config(name)
            result = grid[workload][name]
            breakdown = result.energy_breakdown(
                scheme=config.correction_scheme, model=model
            )
            read_ns = perf.average_read_latency_ns(
                mix if config.use_compression else ReadMix(1.0, 0.0, 0.0)
            )
            encoding = config.encoding
            if encoding != "none":
                read_ns += ENCODING_DECODE_CYCLES * perf.latency.cpu_cycle_ns
            group.append({
                "system": name,
                "workload": workload,
                "encoding": encoding,
                "correction_scheme": config.correction_scheme,
                "writes_issued": result.writes_issued,
                "failed": result.failed,
                "flips_per_write": result.flips_per_write,
                "energy": breakdown.to_dict(),
                "energy_per_write_pj": breakdown.per_write_pj,
                "read_latency_ns": read_ns,
                # Modeled steady-state read throughput, M reads/s.
                "throughput_mreads_per_s": 1e3 / read_ns,
                "pareto": False,
            })
        for index in pareto_frontier(group):
            group[index]["pareto"] = True
        points.extend(group)
    return points


def pareto_frontier(
    points: list[dict],
    minimize: tuple[str, ...] = ("energy_per_write_pj",),
    maximize: tuple[str, ...] = ("writes_issued", "throughput_mreads_per_s"),
) -> list[int]:
    """Indices of the non-dominated points.

    Point ``a`` dominates ``b`` when it is no worse on every objective
    and strictly better on at least one.  Duplicate objective vectors
    all survive (neither strictly dominates the other).
    """

    def objectives(point: dict) -> tuple[float, ...]:
        # Negate the maximized metrics so dominance is uniformly
        # "<= everywhere, < somewhere".
        return tuple(point[key] for key in minimize) + tuple(
            -point[key] for key in maximize
        )

    vectors = [objectives(point) for point in points]
    frontier = []
    for i, a in enumerate(vectors):
        dominated = any(
            all(x <= y for x, y in zip(b, a)) and b != a
            for j, b in enumerate(vectors)
            if j != i
        )
        if not dominated:
            frontier.append(i)
    return frontier
