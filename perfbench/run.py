"""tacpush benchmark: experiment-grid throughput, taps to target and a traced
per-layer breakdown.

    python3 perfbench/run.py --workload offset_grid --seed 1 --seconds 25 --trace 0

Each pass does what `tacpush expN` does: run the grid, export, plot. A run
is closed-loop (a trial starts when the previous one ends) and repeats
passes until --seconds have gone, with at least one full cycle of the
workload's grids plus one repeat. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it alternates an untraced pass with traced cycles
and prints the per-layer metrics and the tracing overhead. Every run checks
its outputs: any two passes of the same grid, traced or not, must write a
byte-identical taps.csv. The last line of stdout is the JSON result;
details, machine and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
SETUP_SLICES = 3  # calibration slices either side of each set-up interpreter
POOL_SLICES = 8  # calibration slices per process before and after each pool pass

END_TO_END = {
    "trials_per_s": "1/s",
    "ms_per_tap": "ms",
    "trial_ms.p50": "ms",
    "trial_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "taps_per_trial": "count",
    "mean_y_targ_mm": "mm",
}

POSE_MATH = ("compose", "inverse", "euler_to_transform", "transform_to_euler")
# Every workload pushes this shape, so its probe time is a metric on all of
# them; the result file breaks probe time down by every shape pushed.
PROBE_SHAPE = "blue_square"
_PROBE = "scene.boundary_probe."

PER_LAYER = {
    "scene.boundary_probe.us_per_call": "us",
    f"scene.boundary_probe.us_per_call.{PROBE_SHAPE}": "us",
    "scene.boundary_probe.calls_per_tap": "count",
    "push_dynamics.substeps_per_tap": "count",
    "push_dynamics.free_substep_share": "ratio",
    "push_dynamics.resolve_substep.us_per_call.separated": "us",
    "push_dynamics.resolve_substep.us_per_call.contact": "us",
    "push_dynamics.probes_per_contact_substep": "count",
    "push_dynamics.simulate_tap.us_per_call": "us",
    "push_dynamics.physics_faults": "count",
    "tactile_sense.sense_contact.us_per_call": "us",
    "tactile_sense.apply_noise.us_per_call": "us",
    "tactile_sense.no_contact_share": "ratio",
    "tactile_sense.clamped_share": "ratio",
    "push_controller.control_step.us_per_call": "us",
    **{
        f"pose_math.{fn}.{what}": unit
        for fn in POSE_MATH
        for what, unit in (("calls_per_tap", "count"), ("us_per_call", "us"))
    },
    "exp_harness.export_ms": "ms",
    "exp_harness.plot_ms": "ms",
    "exp_harness.record_bytes_per_trial": "B",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    grid: int
    traced: bool
    records: list | None  # None once checked, unless a later step reads them
    failed: int  # trials whose outcome was not "reached"
    trial_ms: list  # raw
    seconds: float  # raw, calibration slices excluded
    slices: list  # calibration slice seconds taken during the pass
    trial_speed: list  # per trial: factor scaling its time to the reference host
    digest: str
    problems: list
    layer_ns: Counter | None = None  # traced: raw ns per span name in this pass

    @property
    def speed(self) -> float:
        """Factor that scales the pass's other timings to the reference host."""
        return calibration.REFERENCE_S / statistics.median(self.slices)

    @property
    def scaled_trial_ms(self) -> list:
        return [t * f for t, f in zip(self.trial_ms, self.trial_speed)]

    @property
    def scaled_seconds(self) -> float:
        # on a pool the trials overlap, but every trial_speed equals speed,
        # so this reduces to seconds * speed
        rest = self.seconds - sum(self.trial_ms) / 1000.0
        return sum(self.scaled_trial_ms) / 1000.0 + rest * self.speed


def run_pass(eh, workload, grid: int, scenarios, out_dir: Path, traced: bool,
             calibrators=None) -> Pass:
    """Run one grid, export and plot it; time it from start to the last file.

    Sequential workloads take a calibration slice before the first trial and
    after every trial, and scale each trial by the two slices either side
    of it: the host switches speed within seconds. A pool keeps every core
    busy, so its slices run on as many processes at once (`calibrators`),
    before and after the pass, and every trial is scaled by their median.
    """
    ref = calibration.REFERENCE_S

    def pool_slices():
        parts = calibrators.map(calibration.slices, [POOL_SLICES] * workload.workers)
        return [s for part in parts for s in part]

    if workload.workers > 1:
        slices = pool_slices()
        t0 = time.perf_counter()
        records = eh.run_trials(scenarios, workers=workload.workers)
        trial_ms = [r.wall_time_ms for r in records]
    else:
        t0 = time.perf_counter()
        slices = [calibration.slice_seconds()]
        records, trial_ms = [], []
        for scenario in scenarios:
            t = time.perf_counter()
            records.append(eh.run_trial(scenario))
            trial_ms.append((time.perf_counter() - t) * 1000.0)
            slices.append(calibration.slice_seconds())
        trial_speed = [2.0 * ref / (a + b) for a, b in zip(slices, slices[1:])]
    paths = eh.export(records, out_dir)
    eh.plot(records, out_dir / "trajectories.svg")
    seconds = time.perf_counter() - t0 - (0.0 if workload.workers > 1 else sum(slices))
    if workload.workers > 1:
        slices += pool_slices()
        trial_speed = [ref / statistics.median(slices)] * len(records)
    digest = hashlib.sha256(paths["taps"].read_bytes()).hexdigest()
    problems = check_outputs(eh, scenarios, records, paths)
    failed = sum(r.outcome != "reached" for r in records)
    return Pass(grid, traced, records, failed, trial_ms, seconds, slices, trial_speed, digest,
                problems)


def check_outputs(eh, scenarios, records, paths) -> list:
    """Cross-check the records against the scenarios and the written files.

    Uses plain arithmetic rather than tacpush functions, so that checking a
    traced pass adds nothing to its traced calls.
    """
    problems = []
    if [r.scenario_id for r in records] != [s.name for s in scenarios]:
        return ["records do not match the scenarios in order"]
    rows = eh.read_taps_csv(paths["taps"])
    expected = [(r.scenario_id, str(i)) for r in records for i in range(r.tap_total)]
    if [(row["scenario_id"], row["tap"]) for row in rows] != expected:
        problems.append("taps.csv rows do not match the records' taps")
    saved = json.loads(paths["metrics"].read_text())
    reached = [r for r in records if r.outcome == "reached"]
    if saved["n_trials"] != len(records) or saved["success_rate"] != len(reached) / len(records):
        problems.append("metrics.json disagrees with the records")
    for r in reached:
        _, y, z, alpha, _, _ = r.final_pusher_pose
        ty, tz = r.meta["target_pose_mm_deg"][1:3]
        if math.hypot(ty - y, tz - z) >= r.meta["termination_radius_mm"]:
            problems.append(f"{r.scenario_id}: reached but outside the termination radius")
        a = math.radians(alpha)
        y_targ = abs(-math.sin(a) * (tz - z) - math.cos(a) * (ty - y))
        if not math.isclose(y_targ, r.y_targ, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{r.scenario_id}: y_targ {r.y_targ} != {y_targ} from final pose")
    return problems


def measure(eh, workload, grids, seconds: float, out_dir: Path, tracer=None) -> list:
    """Repeat passes until `seconds` have gone; returns every Pass.

    Untraced (tracer None): the cycle of grids, then repeats in cycle order,
    at least one. Traced: blocks of [grid 0 untraced, whole cycle traced],
    at least one block; only whole traced cycles are run so that traced
    counts per tap are exact.
    """
    pool = nullcontext()
    if workload.workers > 1:
        spawn = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(workload.workers, mp_context=spawn)
    try:
        with pool as calibrators:
            if calibrators is not None:
                # start the calibration processes before anything is timed
                list(calibrators.map(calibration.slices, [1] * workload.workers))
            return _repeat_passes(eh, workload, grids, seconds, out_dir, tracer, calibrators)
    finally:
        if workload.workers > 1:
            stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    A spawned pool starts the tracker as a child process that otherwise
    exits only after this process has, so it would outlive the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _repeat_passes(eh, workload, grids, seconds, out_dir, tracer, calibrators) -> list:
    passes = []
    start = time.perf_counter()

    def one(grid, traced):
        if traced:
            before = tracer.total_ns.copy()
            with tracer:
                p = run_pass(eh, workload, grid, grids[grid], out_dir, True, calibrators)
            tracer.merge_workers()
            p.layer_ns = tracer.total_ns - before
        else:
            first = all(q.grid != grid for q in passes)
            p = run_pass(eh, workload, grid, grids[grid], out_dir, False, calibrators)
            if not first:
                # only the first pass of a grid is read again: keeping one
                # cycle of records holds peak RSS whatever the pass count
                p.records = None
        passes.append(p)
        return p.seconds

    if tracer is None:
        k = 0
        while True:
            one(k % len(grids), False)
            k += 1
            if k <= len(grids):
                continue
            typical = statistics.median(p.seconds for p in passes)
            if time.perf_counter() - start + 0.5 * typical >= seconds:
                return passes
    while True:
        block = one(0, False) + sum(one(g, True) for g in range(len(grids)))
        if time.perf_counter() - start + 0.5 * block >= seconds:
            return passes


def gate(passes) -> dict:
    """Digest agreement between passes of the same grid."""
    first = {}
    repeat_ok = trace_ok = True
    for p in passes:
        ref = first.setdefault(p.grid, p)
        if p.digest != ref.digest:
            if p.traced == ref.traced:
                repeat_ok = False
            else:
                trace_ok = False
    return {
        "repeats_agree": repeat_ok,
        "traced_agrees_with_untraced": trace_ok,
        "digests": {str(g): p.digest for g, p in sorted(first.items())},
        "problems": sorted({msg for p in passes for msg in p.problems}),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def first_cycle(passes, cycle: int) -> list:
    """Records of the first pass of each grid, in grid order."""
    seen = {}
    for p in passes:
        seen.setdefault(p.grid, p)
    return [r for g in range(cycle) for r in seen[g].records]


def timings(passes, cycle: int, normalise: bool):
    """Trials/s, ms/tap and per-trial ms over one cycle of grids.

    Each grid's time is the median over its passes, so repeats damp host
    noise while the mix of trials stays that of one cycle.
    """
    grid_seconds, grid_taps, grid_trials, trial_ms = 0.0, 0, 0, []
    for g in range(cycle):
        mine = [p for p in passes if p.grid == g]
        grid_seconds += statistics.median(
            p.scaled_seconds if normalise else p.seconds for p in mine
        )
        grid_taps += sum(r.tap_total for r in mine[0].records)
        grid_trials += len(mine[0].records)
        per_trial = [p.scaled_trial_ms if normalise else p.trial_ms for p in mine]
        for i in range(len(mine[0].records)):
            trial_ms.append(statistics.median(times[i] for times in per_trial))
    return {
        "trials_per_s": grid_trials / grid_seconds,
        "ms_per_tap": 1000.0 * grid_seconds / grid_taps,
        "trial_ms.p50": percentile(trial_ms, 50),
        "trial_ms.p90": percentile(trial_ms, 90),
    }, len(trial_ms), grid_trials


def end_to_end(passes, cycle: int, setup_times, peak_rss_mb: float):
    """End-to-end metrics; timings at the reference host's speed."""
    metrics, n_trial_ms, cycle_trials = timings(passes, cycle, normalise=True)
    records = first_cycle(passes, cycle)
    reached = [r for r in records if r.outcome == "reached"]
    metrics.update({
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": len(reached) / len(records),
        "taps_per_trial": statistics.fmean(r.tap_total for r in reached) if reached else 0.0,
        "mean_y_targ_mm": statistics.fmean(r.y_targ for r in reached) if reached else 0.0,
    })
    samples = {"trial_ms": n_trial_ms, "passes": len(passes), "cycle_trials": cycle_trials}
    return metrics, samples


def scaled_us_per_call(tracer, passes, *names) -> float:
    """µs per call over the span `names`, each traced pass's time scaled to
    the reference host by that pass's speed, as the end-to-end timings are."""
    calls = sum(tracer.calls[name] for name in names)
    ns = sum(p.layer_ns[name] * p.speed for p in passes if p.traced for name in names)
    return ns / calls / 1000.0 if calls else 0.0


def probe_by_shape(tracer, passes) -> dict:
    """boundary_probe calls per tap (of that shape's trials) and scaled µs
    per call, for each shape the traced passes pushed."""
    taps = Counter()
    for p in passes:
        if p.traced:
            for r in p.records:
                taps[r.meta["shape"]["name"]] += r.tap_total
    return {
        shape: {
            "calls_per_tap": tracer.calls[_PROBE + shape] / taps[shape],
            "us_per_call": scaled_us_per_call(tracer, passes, _PROBE + shape),
        }
        for shape in sorted(taps)
    }


def per_layer(tracer, passes) -> dict:
    """Per-layer metrics from the traced passes (whole cycles only)."""
    traced = [p for p in passes if p.traced]
    taps = tracer.calls["push_dynamics.simulate_tap"]
    if taps == 0:
        raise RuntimeError("traced passes made no taps")
    calls = tracer.calls

    def share(part, whole):
        return part / whole if whole else 0.0

    def us(*names):
        return scaled_us_per_call(tracer, traced, *names)

    probe_names = [name for name in calls if name.startswith(_PROBE)]
    probes = sum(calls[name] for name in probe_names)
    sep = calls["push_dynamics.resolve_substep.separated"]
    contact = calls["push_dynamics.resolve_substep.contact"]
    substeps = sep + contact + calls["push_dynamics.resolve_substep.fault"]
    m = {
        "scene.boundary_probe.us_per_call": us(*probe_names),
        f"scene.boundary_probe.us_per_call.{PROBE_SHAPE}": us(_PROBE + PROBE_SHAPE),
        "scene.boundary_probe.calls_per_tap": probes / taps,
        "push_dynamics.substeps_per_tap": substeps / taps,
        "push_dynamics.free_substep_share": share(sep, substeps),
        "push_dynamics.resolve_substep.us_per_call.separated":
            us("push_dynamics.resolve_substep.separated"),
        "push_dynamics.resolve_substep.us_per_call.contact":
            us("push_dynamics.resolve_substep.contact"),
        "push_dynamics.probes_per_contact_substep":
            share(tracer.counts["push_dynamics.contact_substep_probes"], contact),
        "push_dynamics.simulate_tap.us_per_call": us("push_dynamics.simulate_tap"),
        "push_dynamics.physics_faults": tracer.counts["push_dynamics.physics_faults"],
        "tactile_sense.sense_contact.us_per_call": us("tactile_sense.sense_contact"),
        "tactile_sense.apply_noise.us_per_call": us("tactile_sense.apply_noise"),
        "tactile_sense.no_contact_share":
            share(tracer.counts["tactile_sense.no_contact"], calls["tactile_sense.sense_contact"]),
        "tactile_sense.clamped_share":
            share(tracer.counts["tactile_sense.clamped"], tracer.counts["tactile_sense.noisy_readings"]),
        "push_controller.control_step.us_per_call": us("push_controller.control_step"),
    }
    for fn in POSE_MATH:
        m[f"pose_math.{fn}.calls_per_tap"] = calls[f"pose_math.{fn}"] / taps
        m[f"pose_math.{fn}.us_per_call"] = us(f"pose_math.{fn}")
    # same trials with and without tracing: grid 0's per-trial times
    untraced_grid0 = [p.scaled_trial_ms for p in passes if not p.traced]
    traced_grid0 = [p.scaled_trial_ms for p in traced if p.grid == 0]
    ratios = [
        statistics.median(t[i] for t in traced_grid0) / statistics.median(u[i] for u in untraced_grid0)
        for i in range(len(untraced_grid0[0]))
    ]
    m.update({
        "exp_harness.export_ms": us("exp_harness.export") / 1000.0,
        "exp_harness.plot_ms": us("exp_harness.plot") / 1000.0,
        "exp_harness.record_bytes_per_trial": statistics.fmean(
            len(pickle.dumps(r)) for p in traced for r in p.records
        ),
        "trace.overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
    })
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def setup_times(workload: str, seed: int, pycache: Path) -> list:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, one at a time,
    each scaled to the reference host by the median calibration slice just
    before and just after it, as for a trial; returns (scaled, raw).

    Every interpreter reads bytecode from `pycache`, a fresh directory that
    an untimed first interpreter fills, and none writes any. So set-up
    never includes compiling, whatever `__pycache__` directories the
    checkout or the Python installation hold.
    """
    cmd = [sys.executable, "-B", str(HERE / "setup_time.py"), "--workload", workload,
           "--seed", str(seed)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([cmd[0], *cmd[2:]], env=env, capture_output=True, timeout=120, check=True)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(calibration.slices(SETUP_SLICES))
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        after = statistics.median(calibration.slices(SETUP_SLICES))
        raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * 2.0 * calibration.REFERENCE_S / (before + after))
    return scaled, raw


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (MB)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tacpush benchmark (see perfbench/NOTES.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="master seed for scenario generation "
                             "(NOTES.md names the held-out seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="1: traced per-layer run, 0: end-to-end run")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
        import tracer as tracing
        import tacpush
    except ImportError as exc:
        print(f"perfbench: cannot import tacpush from src/: {exc}", file=sys.stderr)
        return 2
    if not Path(tacpush.__file__).resolve().is_relative_to(workloads.SRC.resolve()):
        print(f"perfbench: tacpush imported from {tacpush.__file__}, not from src/",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    eh = workloads.eh

    info = {"machine": machine(), "loadavg_start": os.getloadavg()}
    tag = f"{workload.name}-s{args.seed}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setups, raw_setups = (
        ([], []) if args.trace else setup_times(workload.name, args.seed, run_dir / "pycache")
    )
    grids = workload.grids(args.seed)
    tracer = None
    if args.trace:
        spool = run_dir / "spool"
        spool.mkdir()
        tracer = tracing.Tracer(spool)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    passes = measure(eh, workload, grids, args.seconds, run_dir / "grid", tracer)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    info["loadavg_end"] = os.getloadavg()

    checks = gate(passes)
    correct = checks["repeats_agree"] and checks["traced_agrees_with_untraced"] and not checks["problems"]
    outcomes = dict(Counter(r.outcome for r in first_cycle(passes, workload.cycle)))
    attempted = sum(len(p.trial_ms) for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        metrics = per_layer(tracer, passes)
        units = PER_LAYER
        samples = {"traced_passes": sum(p.traced for p in passes), "passes": len(passes)}
        tracer.write_spans(run_dir / "spans.json")
        info["layers"] = tracer.table()
        info["probe_by_shape"] = probe_by_shape(tracer, passes)
    else:
        metrics, samples = end_to_end(passes, workload.cycle, setups, peak_rss_mb())
        units = END_TO_END
        info["raw"] = timings(passes, workload.cycle, normalise=False)[0]
        info["raw"]["setup_s"] = statistics.median(raw_setups)
        info["setup_s_samples"] = {"scaled": setups, "raw": raw_setups}
    info.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": wall_s, "cpu_over_wall": cpu_s / wall_s,
        "samples": samples, "outcomes_first_cycle": outcomes, "gate": checks,
        "passes": [
            {"grid": p.grid, "traced": p.traced, "seconds": p.seconds,
             "scaled_seconds": p.scaled_seconds, "trial_ms": p.trial_ms,
             "trial_speed": p.trial_speed, "slices": p.slices}
            for p in passes
        ],
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info["result"] = result
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(info, indent=1))

    m = info["machine"]
    print(f"machine: {m['nproc']} x {m['cpu_model']}, Python {m['python']}, numpy {m['numpy']}, "
          f"load {info['loadavg_start'][0]:.2f} -> {info['loadavg_end'][0]:.2f}")
    print(f"{workload.name} seed {args.seed}: {len(passes)} passes in {wall_s:.1f} s, "
          f"samples {samples}, outcomes {outcomes}")
    print(f"gate: repeats agree {checks['repeats_agree']}, traced agrees "
          f"{checks['traced_agrees_with_untraced']}, problems {len(checks['problems'])}")
    for problem in checks["problems"]:
        print(f"  problem: {problem}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for shape, probe in info.get("probe_by_shape", {}).items():
        print(f"  ({shape}: {probe['calls_per_tap']:.6g} boundary_probe calls per tap, "
              f"{probe['us_per_call']:.6g} us per call)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
