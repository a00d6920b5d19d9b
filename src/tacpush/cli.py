"""Command-line front end: run scenarios, reproduce the experiment grids,
validate scenario files and render trajectory plots."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import exp_harness
from .scenario import ScenarioError, load_scenario, shape_to_dict
from .scene import builtin_shapes


def positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for seeds: an integer in [0, 2**64), so that no two seeds alias."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


# the experiment-grid subcommands: name -> grid(trials, master_seed)
_GRIDS = {
    "exp1": exp_harness.exp1_grid,
    "exp2": exp_harness.exp2_grid,
    "exp3": exp_harness.exp3_grid,
}


def _finish(records, out_dir: Path) -> int:
    metrics = exp_harness.compute_metrics(records)
    paths = exp_harness.export(records, out_dir)
    exp_harness.plot(records, out_dir / "trajectories.svg")
    print(
        f"{metrics.n_trials} trials, success rate {metrics.success_rate:.1%}, "
        f"mean y_targ "
        + (f"{metrics.mean_y_targ:.2f} mm" if metrics.mean_y_targ is not None else "n/a")
    )
    print(f"wrote {paths['records']}, {paths['taps']}, {paths['timings']}, {paths['metrics']}")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, rng_seed=args.seed)
    if args.noise is not None:
        scenario = dataclasses.replace(
            scenario,
            noise=dataclasses.replace(scenario.noise, enabled=args.noise == "on"),
        )
    scenarios = [scenario]
    for t in range(1, args.trials):
        scenarios.append(
            dataclasses.replace(
                scenario,
                name=f"{scenario.name}_t{t}",
                rng_seed=exp_harness.derive_seed(scenario.rng_seed, t),
            )
        )
    return _finish(exp_harness.run_trials(scenarios, args.workers), args.out)


def _cmd_exp(args) -> int:
    grid = _GRIDS[args.command](args.trials, args.seed)
    return _finish(exp_harness.run_trials(grid, args.workers), args.out)


def _cmd_plot(args) -> int:
    path = exp_harness.plot(exp_harness.load_records(args.records), args.out)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(
        f"OK: {scenario.name} (object {scenario.object.name}, "
        f"max_taps {scenario.max_taps}, seed {scenario.rng_seed})"
    )
    return 0


def _cmd_shapes(args) -> int:
    payload = {name: shape_to_dict(s) for name, s in builtin_shapes().items()}
    text = json.dumps(payload, indent=1)
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacpush",
        description="Planar pushing simulator with a tactile dual-loop push controller",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run trials of a scenario file")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--trials", type=positive_int, default=1)
    p.add_argument("--seed", type=seed_int, default=None)
    p.add_argument("--noise", choices=("on", "off"), default=None)
    p.add_argument("--out", type=Path, default=Path("out"))
    p.add_argument("--workers", type=positive_int, default=1)
    p.set_defaults(func=_cmd_run)

    for name in _GRIDS:
        p = sub.add_parser(name, help=f"run the experiment-{name[-1]} grid")
        p.add_argument("--trials", type=positive_int, default=10, help="trials per cell")
        p.add_argument("--seed", type=seed_int, default=0, help="master seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--workers", type=positive_int, default=1, help="trial worker processes")
        p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("plot", help="render a records.json and the taps.csv beside it to SVG")
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("--scenario", type=Path, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("shapes", help="export the built-in shape catalog as JSON")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_shapes)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
