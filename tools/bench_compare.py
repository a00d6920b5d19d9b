"""Compare the benchmark of two checkouts and write a BENCH_<pr>.json.

Runs `perfbench/run.py --trace 0` in the parent and the change checkout for
a number of pairs per workload, alternating which side runs first, and
writes per metric the median, the quartiles and every run of each side, the
change against the parent in percent and how many pairs the change won.
Optionally it adds traced pairs (`--traced W=N`, alternating likewise),
summarised the same way per per-layer metric, with `boundary_probe` µs per
call by shape of every run; the Tier-1 wall time of each side; and the
trial digest of each side:

    python3 tools/bench_compare.py --parent ../parent --change . --seed 3 \\
        --pairs offset_grid=10 --pairs irregular_grid=3 --pairs shape_grid_pool=3 \\
        --pairs offset_grid@201201859=3 --traced offset_grid=5 --traced irregular_grid \\
        --tier1 --digest 1 --what "what the change does" --out BENCH_13.json

`W@SEED=N` runs workload W at another master seed (say the held-out one);
its entry is keyed `W@SEED`. `--traced W` is `--traced W=1`. Each checkout runs its own `perfbench/` and
`src/`, with PYTHONPATH cleared, so the two cannot import each other.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tacpush.cli import seed_int  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
SIDES = ("parent", "change")


def _env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; returns its result line plus the details it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = json.loads(
        (checkout / "perfbench" / "out" / f"{workload}-s{seed}-trace{trace}.json").read_text()
    )
    return {"result": result, "details": details}


def summary(runs: list) -> dict:
    runs = sorted(runs)
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare_workload(pairs: list, better: dict) -> dict:
    """pairs: [(parent run, change run)] of one workload, in run order."""
    results = {side: [pair[k]["result"] for pair in pairs] for k, side in enumerate(SIDES)}
    out = {
        "runs_per_side": len(pairs),
        # a run repeats grids for --seconds, so a faster side attempts more
        "attempted_per_run": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "failed": sum(r["failed"] for side in SIDES for r in results[side]),
        "correct_runs": f"{sum(r['correct'] for s in SIDES for r in results[s])} "
                        f"of {2 * len(pairs)}",
    }
    metrics = {}
    for name in results["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        entry = {"unit": results["parent"][0]["metrics"][name]["unit"]}
        entry.update({side: summary(values[side]) for side in SIDES})
        base = entry["parent"]["median"]
        entry["change_vs_parent_pct"] = (
            round(100.0 * (entry["change"]["median"] - base) / base, 2) if base else None
        )
        sign = -1.0 if better.get(name) == "lower" else 1.0
        won = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        entry["pairs_won_by_change"] = f"{won} of {len(pairs)}"
        metrics[name] = entry
    if "ms_per_tap" in metrics:  # traced runs report per-layer metrics only
        out["ms_per_tap_pairs_won_by_change"] = metrics["ms_per_tap"]["pairs_won_by_change"]
    out["metrics"] = metrics
    return out


def run_pairs(checkouts: dict, key: str, workload: str, seed: int, seconds: float, n: int,
              trace: int, first: int, loads: list) -> list:
    """n pairs of runs [(parent run, change run)]; the parent runs first in
    pairs first, first + 2, ... (counted across the invocation)."""
    pairs = []
    for k in range(n):
        pair = {}
        for side in (SIDES if (first + k) % 2 == 0 else SIDES[::-1]):
            pair[side] = run_bench(checkouts[side], workload, seed, seconds, trace)
            loads.append(os.getloadavg()[0])
            name = "push_dynamics.simulate_tap.us_per_call" if trace else "ms_per_tap"
            m = pair[side]["result"]["metrics"][name]["value"]
            print(f"{key}{' traced' if trace else ''} pair {k + 1}/{n} {side}: {name} {m:.4g}",
                  flush=True)
        pairs.append((pair["parent"], pair["change"]))
    return pairs


def tier1(checkout: Path) -> dict:
    env = _env()
    env["PYTHONPATH"] = "src"
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 2), "summary": last.strip("= ")}


def digest(checkout: Path, seed: int) -> str:
    proc = subprocess.run([sys.executable, "tools/trial_digest.py", "--seed", str(seed)],
                          cwd=checkout, env=_env(), capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1].rsplit(" ", 1)[-1]


def parse_pairs(specs: list, seed: int, option: str = "--pairs") -> list:
    """'W=N' or 'W@SEED=N' -> [(key, workload, seed, pairs)]."""
    out = []
    for spec in specs:
        m = re.fullmatch(r"([a-z_]+)(?:@(\d+))?=(\d+)", spec)
        if not m:
            raise SystemExit(f"bench_compare: {option} {spec!r} is not W=N or W@SEED=N")
        w, s, n = m.group(1), m.group(2), int(m.group(3))
        if n < 1:
            raise SystemExit(f"bench_compare: {option} {spec!r} needs at least one pair")
        if s:
            try:
                seed_int(s)
            except argparse.ArgumentTypeError:  # the pattern admits no sign
                raise SystemExit(
                    f"bench_compare: {option} {spec!r}: SEED must be below 2**64"
                ) from None
        out.append((f"{w}@{s}" if s else w, w, int(s) if s else seed, n))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seed", type=seed_int, required=True, help="master seed of the runs")
    parser.add_argument("--seconds", type=float, default=25.0, help="--seconds of every run")
    parser.add_argument("--pairs", action="append", required=True, metavar="W[@SEED]=N",
                        help="alternating untraced pairs of workload W (repeatable)")
    parser.add_argument("--traced", action="append", default=[], metavar="W[@SEED][=N]",
                        help="alternating traced pairs of workload W, one by default "
                             "(repeatable)")
    parser.add_argument("--tier1", action="store_true", help="time the Tier-1 suite per side")
    parser.add_argument("--digest", type=seed_int, metavar="SEED",
                        help="run tools/trial_digest.py at SEED on each side")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    plan = parse_pairs(args.pairs, args.seed)
    traced_plan = parse_pairs([t if "=" in t else f"{t}=1" for t in args.traced], args.seed,
                              "--traced")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    loads = [os.getloadavg()[0]]
    runs = {}
    # alternate which side runs first across every pair of this invocation
    order = 0
    for key, workload, seed, n in plan:
        runs.setdefault(key, []).extend(
            run_pairs(checkouts, key, workload, seed, args.seconds, n, 0, order, loads))
        order += n
    machine = runs[plan[-1][0]][-1][1]["details"]["machine"]

    out = {
        "what": args.what,
        "machine": machine,
        "method": (
            f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {args.seconds:g} "
            "--trace 0 in each checkout, parent and change alternating which runs first; "
            "per metric the median and quartiles over each side's runs "
            "(tools/bench_compare.py)."
        ),
        "seed": args.seed,
        "workloads": {key: compare_workload(pairs, better) for key, pairs in runs.items()},
    }
    for key, workload, seed, n in traced_plan:
        pairs = run_pairs(checkouts, key, workload, seed, args.seconds, n, 1, order, loads)
        order += n
        out[f"traced_{key}"] = entry = compare_workload(pairs, better)
        entry["probe_by_shape"] = {side: [pair[k]["details"].get("probe_by_shape", {})
                                           for pair in pairs]
                                    for k, side in enumerate(SIDES)}
    if args.tier1:
        print("tier-1", flush=True)
        out["tier1_wall_s"] = {side: tier1(checkouts[side]) for side in SIDES}
        out["tier1_wall_s"]["command"] = "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]])
    if args.digest is not None:
        print("digest", flush=True)
        hashes = {side: digest(checkouts[side], args.digest) for side in SIDES}
        out[f"trial_digest_seed_{args.digest}"] = {**hashes,
                                                   "equal": len(set(hashes.values())) == 1}
    out["loadavg_range"] = [min(loads), max(loads)]
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for key, w in out["workloads"].items():
        m = w["metrics"]["ms_per_tap"]
        print(f"{key}: ms_per_tap {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"({m['change_vs_parent_pct']:+.1f}%), change won {m['pairs_won_by_change']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
