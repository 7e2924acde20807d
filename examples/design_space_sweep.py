#!/usr/bin/env python3
"""Design-space sweep: tuning the proposed architecture's knobs.

Sweeps one configuration knob of the Comp+WF system at a time and
reports lifetime (writes to 50%-capacity failure) plus flips per write:

* the Figure 8 thresholds (Threshold1 / Threshold2);
* the Start-Gap period psi;
* the correction scheme (ECP-6 / SAFER-32 / Aegis 17x31);
* the wear-leveling backend (Start-Gap + FREE-p / WoLFRaM PAD);
* the registered comp_wf ablation/extension variants
  (``python -m repro systems`` lists them).

Examples:
  python examples/design_space_sweep.py --workload bzip2
  python examples/design_space_sweep.py --workload milc --lines 64 --endurance 40
"""

import argparse

from repro.engine import get_system, system_names
from repro.lifetime import build_simulator
from repro.traces import WORKLOAD_ORDER


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="bzip2", choices=sorted(WORKLOAD_ORDER))
    parser.add_argument("--lines", type=int, default=48)
    parser.add_argument("--endurance", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def run(args, system="comp_wf", **overrides):
    simulator = build_simulator(
        system,
        args.workload,
        n_lines=args.lines,
        endurance_mean=args.endurance,
        seed=args.seed,
        **overrides,
    )
    return simulator.run(max_writes=3_000_000)


def main() -> None:
    args = parse_args()
    print(f"workload={args.workload}, lines={args.lines}, "
          f"endurance={args.endurance:.0f}\n")

    print("Figure 8 thresholds (T1 always-compress, T2 minor-change band):")
    for t1, t2 in ((8, 8), (16, 8), (32, 8), (16, 4), (16, 16)):
        result = run(args, threshold1=t1, threshold2=t2)
        print(f"  T1={t1:2d} T2={t2:2d}: writes={result.writes_issued:8d}  "
              f"flips/wr={result.flips_per_write:6.1f}  "
              f"compressed={result.compressed_write_fraction:5.1%}")

    print("\nStart-Gap psi (writes per gap move):")
    for psi in (25, 100, 400):
        result = run(args, start_gap_psi=psi)
        print(f"  psi={psi:4d}: writes={result.writes_issued:8d}  "
              f"flips/wr={result.flips_per_write:6.1f}")

    print("\ncorrection scheme:")
    for scheme in ("ecp6", "safer32", "aegis17x31"):
        result = run(args, correction_scheme=scheme)
        print(f"  {scheme:12}: writes={result.writes_issued:8d}  "
              f"faults/dead block={result.avg_faults_per_dead_block:5.1f}")

    print("\nwear-leveling backend:")
    for backend in ("startgap_freep", "wolfram"):
        result = run(args, wl_backend=backend)
        print(f"  {backend:14}: writes={result.writes_issued:8d}  "
              f"flips/wr={result.flips_per_write:6.1f}")

    print("\nregistered comp_wf variants (see `python -m repro systems`):")
    variants = [n for n in system_names() if n.startswith("comp_wf")]
    for name in variants:
        result = run(args, system=name)
        print(f"  {name:20}: writes={result.writes_issued:8d}  "
              f"({get_system(name).description})")


if __name__ == "__main__":
    main()
