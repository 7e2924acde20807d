#!/usr/bin/env python3
"""Consolidation study: mixed workloads sharing one PCM memory.

The paper evaluates homogeneous (rate-mode) workloads; consolidated
systems interleave different programs over the same physical memory.
This example partitions the memory between two programs and asks how
the compression architecture behaves when a highly compressible tenant
(milc) shares the device with a poorly compressible one (lbm):

* overall lifetime under Baseline vs Comp+WF;
* whether the compressible tenant's small writes keep the shared
  device alive longer than lbm alone would.

Examples:
  python examples/consolidation_study.py
  python examples/consolidation_study.py --tenants milc lbm --shares 3 1
"""

import argparse

from repro.core import comp_wf, baseline
from repro.lifetime import LifetimeSimulator
from repro.traces import MixMember, MixedWorkload, WORKLOAD_ORDER, get_profile


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tenants", nargs=2, default=["milc", "lbm"],
                        choices=sorted(WORKLOAD_ORDER))
    parser.add_argument("--shares", nargs=2, type=float, default=[1.0, 1.0])
    parser.add_argument("--lines", type=int, default=64)
    parser.add_argument("--endurance", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def run(config, source, args):
    simulator = LifetimeSimulator(
        config=config,
        source=source,
        n_lines=args.lines,
        endurance_mean=args.endurance,
        seed=args.seed + 1,
    )
    return simulator.run(max_writes=3_000_000)


def main() -> None:
    args = parse_args()
    mix = MixedWorkload(
        [
            MixMember(get_profile(args.tenants[0]), share=args.shares[0]),
            MixMember(get_profile(args.tenants[1]), share=args.shares[1]),
        ],
        n_lines=args.lines,
        seed=args.seed,
    )
    print(f"tenants: {mix.name}, shares {args.shares[0]:.0f}:{args.shares[1]:.0f}, "
          f"{args.lines} lines, endurance {args.endurance:.0f}\n")

    results = {}
    for config in (baseline(), comp_wf()):
        mix_fresh = MixedWorkload(
            [
                MixMember(get_profile(args.tenants[0]), share=args.shares[0]),
                MixMember(get_profile(args.tenants[1]), share=args.shares[1]),
            ],
            n_lines=args.lines,
            seed=args.seed,
        )
        results[config.name] = run(config, mix_fresh, args)

    print(f"{'system':10}{'writes to 50% dead':>20}{'flips/write':>13}"
          f"{'revivals':>10}")
    for name, result in results.items():
        print(f"{name:10}{result.writes_issued:>20d}"
              f"{result.flips_per_write:>13.1f}{result.stats.revivals:>10d}")
    gain = results["comp_wf"].writes_issued / results["baseline"].writes_issued
    print(f"\nComp+WF extends the consolidated memory's lifetime {gain:.2f}x")


if __name__ == "__main__":
    main()
