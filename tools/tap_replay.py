"""Replay every benchmark tap, open loop, through two checkouts' simulate_tap.

The capture runs every grid of every workload in `perfbench/workloads.py` in
the parent checkout and records the inputs of each tap by wrapping
`exp_harness.simulate_tap`: the world (object and pusher poses, and the
contact it carries), the shape as `scenario.shape_to_dict` writes it, the
commanded pose and the tap lengths. The replay feeds those same inputs to
`simulate_tap` in each checkout, so the controller cannot amplify a
difference from one tap to the next. Per workload it prints the per-tap
differences between the two sides of the object pose and the pusher pose
after the tap (position in mm and heading in degrees; median, p90 and max),
how many taps differ at all, and how many report another contact mode at the
end of the advance. A tap differs at all when any replayed value differs in
any bit: the two poses, or the contact that the tap reports (penetration,
point, normal and mode) and the sense heading, which are what the tactile
reading is taken from. It also prints each side's `resolve_substep` calls
and `boundary_probe` calls a tap, counted by wrapping those two bindings of
`push_dynamics` in each replay. A tap starts from the free-space certificate
of the contact its world carries, on every outline, so these are the closed
loop's counts:

    python3 tools/tap_replay.py --parent ../parent --change . --seed 1

Each checkout runs in its own interpreter, with its own `src/` and
`perfbench/` on the path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def capture(seed: int, out: Path) -> None:
    """Run every workload's grids and write one JSON line per tap: its
    workload, the index of its shape among the distinct shapes, the object,
    pusher and commanded poses as (y, z, alpha), the tap lengths and the
    world's contact (point, normal, mode, penetration; null if none); then
    one line of the shapes."""
    import workloads
    from tacpush import exp_harness
    from tacpush.scenario import shape_to_dict

    shapes: dict = {}
    simulate_tap = exp_harness.simulate_tap
    with out.open("w") as f:
        workload = None

        def recording(world, shape, cmd, tap_forward, tap_back):
            key = json.dumps(shape_to_dict(shape))
            o, p = world.object_pose, world.pusher_pose
            c = world.contact
            carried = None if c is None else [c.point, c.normal, c.mode.value, c.penetration]
            row = [workload, shapes.setdefault(key, len(shapes)), [o.y, o.z, o.alpha],
                   [p.y, p.z, p.alpha], [cmd.y, cmd.z, cmd.alpha], tap_forward, tap_back,
                   carried]
            f.write(json.dumps(row) + "\n")
            return simulate_tap(world, shape, cmd, tap_forward=tap_forward, tap_back=tap_back)

        exp_harness.simulate_tap = recording
        for workload in workloads.WORKLOADS:
            for grid in workloads.WORKLOADS[workload].grids(seed):
                for scenario in grid:
                    exp_harness.run_trial(scenario)
        f.write(json.dumps([json.loads(key) for key in shapes]) + "\n")


def replay(inputs: Path, out: Path) -> None:
    """Run every captured tap through this checkout's simulate_tap and write
    one JSON line per tap: the object and pusher poses after it, the contact
    mode at the end of the advance, that contact's penetration, point and
    normal, and the sense heading (null for a PhysicsFault); then one line
    of each tap's resolve_substep and boundary_probe calls."""
    from tacpush import push_dynamics
    from tacpush.push_dynamics import ContactMode, ContactState, PhysicsFault, simulate_tap
    from tacpush.scenario import _object
    from tacpush.scene import PlanarPose, WorldState

    calls = {"resolve_substep": 0, "boundary_probe": 0}

    def counting(name):
        real = getattr(push_dynamics, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        setattr(push_dynamics, name, counted)

    for name in calls:
        counting(name)
    lines = inputs.read_text().splitlines()
    # each shape reads back as a scenario file's inline object table does
    shapes = [_object(d, "shape") for d in json.loads(lines[-1])]
    counts = []
    with out.open("w") as f:
        for line in lines[:-1]:
            _, shape, obj, pusher, cmd, tap_forward, tap_back, carried = json.loads(line)
            if carried:
                point, normal, mode, penetration = carried
                carried = ContactState(tuple(point), tuple(normal), ContactMode(mode), penetration)
            world = WorldState(PlanarPose(*obj), PlanarPose(*pusher), carried)
            calls.update(dict.fromkeys(calls, 0))
            try:
                world, heading, contact = simulate_tap(world, shapes[shape], PlanarPose(*cmd),
                                                       tap_forward=tap_forward,
                                                       tap_back=tap_back)
            except PhysicsFault:
                row = None
            else:
                o, p = world.object_pose, world.pusher_pose
                row = [[o.y, o.z, o.alpha], [p.y, p.z, p.alpha], contact.mode.value,
                       contact.penetration, contact.point, contact.normal, heading]
            f.write(json.dumps(row) + "\n")
            counts.append(list(calls.values()))
        f.write(json.dumps(counts) + "\n")


def _run(checkout: Path, args: list) -> None:
    """This script's worker mode in a fresh interpreter on `checkout`'s code."""
    path = os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__, *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 360.0))


def _stats(values: list) -> str:
    values = sorted(values)
    p90 = values[math.ceil(0.9 * len(values)) - 1]
    return f"median {statistics.median(values):.2e}, p90 {p90:.2e}, max {values[-1]:.2e}"


def compare(inputs: Path, outs: dict) -> None:
    """Print the per-workload differences of the two replays."""
    workload_of = [json.loads(line)[0] for line in inputs.read_text().splitlines()[:-1]]
    lines = {side: path.read_text().splitlines() for side, path in outs.items()}
    results = {side: [json.loads(line) for line in lines[side]] for side in lines}
    counts = {side: json.loads(lines[side][-1]) for side in lines}
    for workload in dict.fromkeys(workload_of):
        diffs = {key: [] for key in ("object_mm", "object_deg", "pusher_mm", "pusher_deg")}
        modes = faults = differ = 0
        rows = [i for i, w in enumerate(workload_of) if w == workload]
        for i in rows:
            a, b = results["parent"][i], results["change"][i]
            if a is None or b is None:
                faults += 1
                continue
            for k, name in enumerate(("object", "pusher")):
                diffs[f"{name}_mm"].append(math.dist(a[k][:2], b[k][:2]))
                diffs[f"{name}_deg"].append(_angle_diff(a[k][2], b[k][2]))
            modes += a[2] != b[2]
            # the JSON text tells apart every bit, the sign of a zero included
            differ += lines["parent"][i] != lines["change"][i]
        print(f"{workload}: {len(rows)} taps, {differ} with any difference, "
              f"{modes} changed contact modes, {faults} with a physics fault on a side")
        for key, values in diffs.items():
            if values:
                print(f"  {key}: {_stats(values)}")
        for k, what in enumerate(("substeps", "probes")):
            mean = {side: sum(counts[side][i][k] for i in rows) / len(rows) for side in SIDES}
            print(f"  {what} a tap: parent {mean['parent']:.2f}, change {mean['change']:.2f}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # worker modes, run by _run in the checkout's own interpreter
    if argv[:1] == ["capture"]:
        capture(int(argv[1]), Path(argv[2]))
        return 0
    if argv[:1] == ["replay"]:
        replay(Path(argv[1]), Path(argv[2]))
        return 0
    # the worker modes import tacpush from their checkout's PYTHONPATH; only
    # this front end reads it from the checkout it sits in
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tacpush.cli import seed_int

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seed", type=seed_int, required=True, help="master seed of the grids")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.jsonl"
        _run(checkouts["parent"], ["capture", str(args.seed), str(inputs)])
        outs = {side: Path(tmp) / f"{side}.jsonl" for side in SIDES}
        for side in SIDES:
            _run(checkouts[side], ["replay", str(inputs), str(outs[side])])
        print(f"taps captured from the parent at seed {args.seed}")
        compare(inputs, outs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
