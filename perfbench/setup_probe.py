"""Time one workload's set-up in a fresh interpreter.

Measures from before ``import repro`` until the system is ready for its
first request (controller or simulator built, endurance sampled, and on
``fleet_mixed`` every shard worker forked and answering).  Prints one
JSON line with the set-up seconds.  ``run.py`` starts this script
several times per run.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import repro  # noqa: F401  (timed: part of set-up)
    from workloads import WORKLOADS

    close = WORKLOADS[args.workload](tiny=args.tiny).ready(args.seed)
    setup_s = time.perf_counter() - _START
    close()
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main()
