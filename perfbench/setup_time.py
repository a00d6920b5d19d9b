"""Time one benchmark set-up in a fresh interpreter.

Set-up is what a user pays before the first trial: importing tacpush (and
numpy with it), building the shape catalog and generating the workload's
scenarios, including placement by bisection. Prints {"setup_s": seconds}.

    python3 perfbench/setup_time.py --workload offset_grid --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import workloads

    workloads.builtin_shapes()
    workloads.WORKLOADS[args.workload].grids(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
