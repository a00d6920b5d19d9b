"""Experiment harness: trial runner, offset/shape grids, metrics and export.

A trial loops sense -> control_step -> simulate_tap until the controller
reports a terminal status or the tap budget runs out. The tactile reading
for each control step reads the contact the previous tap resolved at its
deepest point (the only configuration reliably in contact after rigid
overlap resolution); the controller itself works from the post-retraction
pose.
Trials are deterministic given (scenario, seed) and embarrassingly
parallel; per-trial seeds come from a splitmix64-style hash of
(master seed, cell index, trial index) so worker scheduling cannot change
any result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import time
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import product, zip_longest
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from .inputs import ScenarioError, _count, _is_int, _number, _seed, _string, _vector, read
from .push_controller import ControllerConfig, ControllerState, Status, control_step
from .push_dynamics import PhysicsFault, contact_at, simulate_tap
from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    builtin_shapes,
    heading_dir,
)
from .scenario import Scenario, shape_to_dict
from .tactile_sense import apply_noise, sense_contact

__all__ = [
    "EXP1_ANGULAR_OFFSETS_DEG",
    "EXP1_SPATIAL_OFFSETS_MM",
    "EXP2_SHAPE_NAMES",
    "EXP3_SHAPE_NAMES",
    "EXP_START_POSES",
    "EXP_TARGET_POSE",
    "Metrics",
    "Tap",
    "TrialRecord",
    "compute_metrics",
    "compute_y_targ",
    "derive_seed",
    "exp1_grid",
    "exp1_scenario",
    "exp2_grid",
    "exp2_scenario",
    "exp3_grid",
    "export",
    "load_records",
    "place_corner_contact",
    "place_offset_contact",
    "place_random_orientation",
    "plot",
    "read_taps_csv",
    "run_trial",
    "run_trials",
]

EXP_TARGET_POSE = PlanarPose(200.0, 400.0, 0.0)
EXP_START_POSES = (
    PlanarPose(0.0, 0.0, 0.0),
    PlanarPose(0.0, 200.0, -150.0),
    PlanarPose(200.0, 150.0, 45.0),
)
EXP1_SPATIAL_OFFSETS_MM = (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0)
EXP1_ANGULAR_OFFSETS_DEG = (-20.0, 0.0, 20.0)
EXP2_SHAPE_NAMES = ("blue_square", "red_square", "yellow_triangle", "rectangle", "circle")
EXP3_SHAPE_NAMES = ("l_shape", "mug", "blue_square", "yellow_triangle", "circle")

# contact depth used when seating objects against the tip at trial start
INITIAL_CONTACT_DEPTH_MM = 1.0
# distance from the tip centre to the seated object's boundary
_SEAT_DISTANCE_MM = TIP_RADIUS_MM - INITIAL_CONTACT_DEPTH_MM


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, *indices: int) -> int:
    """Fold grid indices into a per-trial seed (splitmix64 chain)."""
    h = _splitmix64(master_seed & _MASK64)
    for ix in indices:
        h = _splitmix64(h ^ _splitmix64(ix & _MASK64))
    return h


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

_CSV_VERSION = "# tacpush-taps-v2"
# the suffixes of the six channels of the servo error (err_*) and integral (int_*)
_SIX = ("x_mm", "y_mm", "z_mm", "alpha_deg", "beta_deg", "gamma_deg")
_CSV_COLUMNS = (
    "scenario_id", "seed", "tap", "pusher_y_mm", "pusher_z_mm", "pusher_alpha_deg",
    "object_y_mm", "object_z_mm", "object_alpha_deg", "in_contact", "z_depth_mm",
    "alpha_pred_deg", "clamped", "theta_deg", "r_mm", "v_mm", *(f"err_{c}" for c in _SIX),
    "contact_mode", "status", *(f"int_{c}" for c in _SIX),
)
# one tap as run_trial logs it: the poses after the tap plus the control
# diagnostics, as the taps.csv row after scenario_id and seed; a reading or
# diagnostic the tap has not (say, the error of a reacquire move) is None
Tap = namedtuple("Tap", _CSV_COLUMNS[2:])


# the outcomes run_trial writes
_OUTCOMES = ("reached", "lost_contact", "max_taps", "physics_fault", "error")


@dataclass
class TrialRecord:
    """One trial. Each of `taps` is a Tap, whose fields are the taps.csv
    columns.

    export writes every tap value to taps.csv, `wall_time_ms` to
    timings.json and every other field, the trial's summary, to
    records.json; load_records reads records.json and taps.csv back into
    an equal record whose `wall_time_ms` is None.
    """

    scenario_id: str
    seed: int
    taps: list
    outcome: str
    y_targ: float | None
    tap_total: int
    wall_time_ms: float | None
    final_pusher_pose: tuple
    final_object_pose: tuple
    meta: dict = field(default_factory=dict)


@dataclass
class Metrics:
    """Aggregate closeness statistics over a batch of trials."""

    mean_y_targ: float | None
    std_y_targ: float | None
    success_rate: float
    n_trials: int
    tap_counts: list


def compute_metrics(records) -> Metrics:
    ys = [r.y_targ for r in records if r.outcome == "reached"]
    return Metrics(
        mean_y_targ=float(np.mean(ys)) if ys else None,
        std_y_targ=float(np.std(ys)) if ys else None,
        success_rate=len(ys) / len(records) if records else 0.0,
        n_trials=len(records),
        tap_counts=[r.tap_total for r in records],
    )


# ---------------------------------------------------------------------------
# trial runner
# ---------------------------------------------------------------------------

def compute_y_targ(final_pusher_pose: PlanarPose, target_pose: PlanarPose) -> float:
    """Perpendicular in-plane distance from the sensor's central-axis line
    to the target point."""
    ay, az = heading_dir(final_pusher_pose.alpha)
    ry, rz = target_pose.y - final_pusher_pose.y, target_pose.z - final_pusher_pose.z
    return abs(ay * rz - az * ry)


def _six(v) -> tuple:
    """A planar (y, z, alpha) triple, such as a PlanarPose or a servo error,
    as its six channels (x, y, z, alpha, beta, gamma); None as six blanks."""
    return (None,) * 6 if v is None else (0.0, *v, 0.0, 0.0)


def run_trial(scenario: Scenario) -> TrialRecord:
    """Run one full push trial of a validated scenario; never raises.

    A physics fault ends the trial with outcome "physics_fault" and its
    diagnostics in meta["fault"]; any other exception ends it with outcome
    "error" and the exception's type and message in meta["error"].
    """
    t0 = time.perf_counter()
    shape = scenario.object
    cfg = scenario.controller
    target = scenario.target_pose
    world = WorldState(scenario.object_start_pose, scenario.pusher_start_pose)
    rng = np.random.default_rng(scenario.rng_seed)
    state = ControllerState()
    taps: list[Tap] = []
    meta = {
        "target_pose_mm_deg": list(_six(target)),
        "shape": shape_to_dict(shape),
        "approach_zone_radius_mm": cfg.approach_zone_radius,
        "termination_radius_mm": cfg.termination_radius,
        "noise_enabled": scenario.noise.enabled,
    }
    try:
        contact = contact_at(shape, world.object_pose, (world.pusher_pose.y, world.pusher_pose.z))
        # the first tap starts from the certificate of this probe
        world = world._replace(contact=contact)
        sense_heading = world.pusher_pose.alpha
        while True:
            pred = apply_noise(sense_contact(contact, sense_heading), scenario.noise, rng)
            decision = control_step(pred, world.pusher_pose, target, state, cfg)
            if decision.status is Status.TARGET_REACHED:
                outcome = "reached"
                break
            if decision.status is Status.LOST_CONTACT:
                outcome = "lost_contact"
                break
            if len(taps) >= scenario.max_taps:
                outcome = "max_taps"
                break
            world, sense_heading, contact = simulate_tap(
                world,
                shape,
                decision.command,
                tap_forward=cfg.tap_forward,
                tap_back=cfg.tap_back,
            )
            pusher, obj = world.pusher_pose, world.object_pose
            taps.append(Tap(
                len(taps), pusher.y, pusher.z, pusher.alpha, obj.y, obj.z, obj.alpha,
                pred.in_contact, pred.z_depth, pred.alpha, pred.clamped,
                decision.theta, decision.r, decision.v,
                *_six(decision.error),
                contact.mode.value, decision.status.value,
                *_six(decision.integral),
            ))
    except PhysicsFault as fault:
        outcome = "physics_fault"
        meta["fault"] = dict(fault.diagnostics)
    except Exception as exc:  # one bad trial must not abort its batch
        outcome = "error"
        meta["error"] = f"{type(exc).__name__}: {exc}"
    y_targ = compute_y_targ(world.pusher_pose, target) if outcome == "reached" else None
    return TrialRecord(
        scenario_id=scenario.name,
        seed=scenario.rng_seed,
        taps=taps,
        outcome=outcome,
        y_targ=y_targ,
        tap_total=len(taps),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        final_pusher_pose=_six(world.pusher_pose),
        final_object_pose=(world.object_pose.y, world.object_pose.z, world.object_pose.alpha),
        meta=meta,
    )


def run_trials(scenarios, workers: int = 1):
    """Run a batch of scenarios; records come back in input order whatever
    the worker count, so output files are byte-identical across counts.

    `workers` must be an int of at least 1 (not a bool). Given more than one
    worker and scenario, min(workers, len(scenarios)) processes are forked
    (the "fork" start method, which needs `os.fork`; it is named because
    Python 3.14 makes "forkserver" Linux's default). Each inherits the
    batch, so no scenario is pickled, and any wrapper over `run_trial`, as
    the benchmark's tracer installs. A worker takes the next index from one
    shared counter and sends (index, record) back over its own pipe. If a
    worker exits before sending a record it took, run_trials raises a
    RuntimeError that names those scenarios. Every worker is joined before
    run_trials returns or raises, and terminated first if it raises.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"run_trials: workers must be an int of at least 1, got {workers!r}")
    scenarios = list(scenarios)
    workers = min(workers, len(scenarios))
    if workers <= 1:
        return [run_trial(s) for s in scenarios]
    return _run_forked(scenarios, workers)


def _run_forked(scenarios: list, workers: int) -> list:
    """run_trials' batch on `workers` forked processes, in input order."""
    fork = multiprocessing.get_context("fork")
    counter = fork.Value("q", 0)
    records = [None] * len(scenarios)
    procs, readers = [], []
    try:
        for _ in range(workers):
            reader, writer = fork.Pipe(duplex=False)
            readers.append(reader)
            proc = fork.Process(target=_work, args=(scenarios, counter, writer))
            proc.start()
            procs.append(proc)
            # so that the pipe reads EOF once the worker exits, and the next
            # worker forked does not inherit this end
            writer.close()
        pending = list(readers)
        while pending:
            for reader in wait(pending):
                try:
                    i, record = reader.recv()
                except (EOFError, OSError):  # OSError: EOF within a message
                    pending.remove(reader)
                else:
                    records[i] = record
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()
    lost = [s.name for s, r in zip(scenarios, records) if r is None]
    if lost:
        codes = sorted({proc.exitcode for proc in procs} - {0})
        raise RuntimeError(
            f"run_trials: a worker exited (exit codes {codes}) without returning the "
            f"records of {', '.join(lost)}"
        )
    return records


def _work(scenarios: list, counter, writer) -> None:
    """A forked worker's loop: run and send back the trial of each index it
    takes from `counter` until the batch is done."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(scenarios):
            break
        writer.send((i, run_trial(scenarios[i])))


# ---------------------------------------------------------------------------
# object placement
# ---------------------------------------------------------------------------

def _seat(pusher_start: PlanarPose, point, normal, turn: float) -> PlanarPose:
    """Pose that puts object-frame `point` dead ahead of the tip, _SEAT_DISTANCE_MM
    from its centre, with the object-frame unit `normal` pointing back at the
    tip, then turned `turn` degrees about that point."""
    ay, az = heading_dir(pusher_start.alpha)
    omega = (
        math.degrees(math.atan2(-az, -ay)) - math.degrees(math.atan2(normal[1], normal[0]))
    ) + turn
    # `point` rotated by omega
    a = math.radians(omega)
    c, s = math.cos(a), math.sin(a)
    py, pz = point
    return PlanarPose(
        pusher_start.y + _SEAT_DISTANCE_MM * ay - (c * py - s * pz),
        pusher_start.z + _SEAT_DISTANCE_MM * az - (s * py + c * pz),
        omega,
    )


def place_offset_contact(
    shape: ObjectShape,
    pusher_start: PlanarPose,
    spatial_offset: float,
    angular_offset: float,
) -> PlanarPose:
    """Seat a polygonal object INITIAL_CONTACT_DEPTH_MM into the tip with its
    first edge facing the pusher; the contact lands `spatial_offset` mm from
    the edge midpoint and the object is rotated `angular_offset` degrees
    about the contact point."""
    if shape.radius is not None:
        raise ValueError("place_offset_contact needs a polygonal shape")
    (y0, z0), (y1, z1) = shape.polygon[:2].tolist()
    ey, ez = y1 - y0, z1 - z0
    n = math.sqrt(ey * ey + ez * ez)
    point = (
        0.5 * (y0 + y1) + spatial_offset * (ey / n),
        0.5 * (z0 + z1) + spatial_offset * (ez / n),
    )
    return _seat(pusher_start, point, shape.edge_normals[0].tolist(), angular_offset)


def place_corner_contact(shape: ObjectShape, pusher_start: PlanarPose) -> PlanarPose:
    """Centre the first external corner on the sensor tip (unstable start).

    Vertex 0 sits INITIAL_CONTACT_DEPTH_MM into the tip, dead ahead of it,
    with its outward bisector pointing back at the sensor. Circles have no
    corners: the nearest boundary point is placed dead ahead instead.
    """
    if shape.radius is not None:
        ay, az = heading_dir(pusher_start.alpha)
        reach = _SEAT_DISTANCE_MM + shape.radius
        return PlanarPose(pusher_start.y + reach * ay, pusher_start.z + reach * az, 0.0)
    (ly, lz), (ry, rz) = shape.edge_normals[[-1, 0]].tolist()
    by, bz = ly + ry, lz + rz
    n = math.sqrt(by * by + bz * bz)
    return _seat(pusher_start, shape.polygon[0].tolist(), (by / n, bz / n), 0.0)


def place_random_orientation(
    shape: ObjectShape, pusher_start: PlanarPose, heading_deg: float
) -> PlanarPose:
    """Seat the object at a fixed heading dead ahead of the tip by sliding it
    along the push axis until the boundary sits INITIAL_CONTACT_DEPTH_MM
    into the disc."""
    y, z = pusher_start.y, pusher_start.z
    ay, az = heading_dir(pusher_start.alpha)

    def depth_at(t: float) -> float:
        pose = PlanarPose(y + t * ay, z + t * az, heading_deg)
        return contact_at(shape, pose, (y, z)).penetration

    lo = 0.0
    hi = TIP_RADIUS_MM + shape.max_extent() + INITIAL_CONTACT_DEPTH_MM + 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if depth_at(mid) > INITIAL_CONTACT_DEPTH_MM:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return PlanarPose(y + t * ay, z + t * az, heading_deg)


# ---------------------------------------------------------------------------
# experiment grids
# ---------------------------------------------------------------------------

def exp1_scenario(
    spatial_offset: float,
    angular_offset: float,
    seed: int,
    max_taps: int = 300,
    name: str | None = None,
) -> Scenario:
    """Contact-offset trial: square pushed from the work-frame origin."""
    shape = builtin_shapes()["blue_square"]
    start = EXP_START_POSES[0]
    return Scenario(
        name=name or f"exp1_o{spatial_offset:+.0f}_a{angular_offset:+.0f}_s{seed & 0xFFFF:04x}",
        object=shape,
        object_start_pose=place_offset_contact(shape, start, spatial_offset, angular_offset),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
        rng_seed=seed,
        max_taps=max_taps,
    )


def exp2_scenario(
    shape_name: str,
    start_index: int,
    seed: int,
    name: str | None = None,
) -> Scenario:
    """Shape/start-pose trial with the unstable corner-centred initialization."""
    shape = builtin_shapes()[shape_name]
    start = EXP_START_POSES[start_index]
    return Scenario(
        name=name or f"exp2_{shape_name}_start{start_index + 1}_s{seed & 0xFFFF:04x}",
        object=shape,
        object_start_pose=place_corner_contact(shape, start),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
        rng_seed=seed,
    )


def exp1_grid(trials_per_cell: int = 10, master_seed: int = 0) -> list[Scenario]:
    """Offset grid: 7 spatial x 3 angular offsets x trials_per_cell."""
    _seed(master_seed, "master_seed")
    return [
        exp1_scenario(
            off, ang, derive_seed(master_seed, cell, t), name=f"exp1_o{off:+.0f}_a{ang:+.0f}_t{t}"
        )
        for cell, (off, ang) in enumerate(
            product(EXP1_SPATIAL_OFFSETS_MM, EXP1_ANGULAR_OFFSETS_DEG)
        )
        for t in range(trials_per_cell)
    ]


def exp2_grid(trials_per_cell: int = 10, master_seed: int = 0) -> list[Scenario]:
    """Shape grid: 5 shapes x 3 start poses x trials_per_cell, corner starts."""
    _seed(master_seed, "master_seed")
    return [
        exp2_scenario(
            shape_name, j, derive_seed(master_seed + 1, cell, t),
            name=f"exp2_{shape_name}_start{j + 1}_t{t}",
        )
        for cell, (shape_name, j) in enumerate(
            product(EXP2_SHAPE_NAMES, range(len(EXP_START_POSES)))
        )
        for t in range(trials_per_cell)
    ]


def exp3_grid(trials_per_shape: int = 10, master_seed: int = 0) -> list[Scenario]:
    """Random-orientation runs at start 2 for irregular (and control) shapes.

    The tap budget is doubled relative to the offset-grid runs: adversarial
    orientations of non-convex outlines can force the pusher to work the
    long way around the object before the bearing unwinds.
    """
    _seed(master_seed, "master_seed")
    start = EXP_START_POSES[1]
    grid = []
    for i, shape_name in enumerate(EXP3_SHAPE_NAMES):
        shape = builtin_shapes()[shape_name]
        for t in range(trials_per_shape):
            init_rng = np.random.default_rng(derive_seed(master_seed + 2, i, t, 0))
            heading = float(init_rng.uniform(0.0, 360.0))
            grid.append(
                Scenario(
                    name=f"exp3_{shape_name}_t{t}",
                    object=shape,
                    object_start_pose=place_random_orientation(shape, start, heading),
                    pusher_start_pose=start,
                    target_pose=EXP_TARGET_POSE,
                    rng_seed=derive_seed(master_seed + 2, i, t, 1),
                    max_taps=600,
                )
            )
    return grid


# ---------------------------------------------------------------------------
# export and load
# ---------------------------------------------------------------------------

_RECORDS_VERSION = 2
# the TrialRecord fields records.json holds: all but the taps, which are in
# taps.csv, and the wall time, which is in timings.json so that records.json
# is deterministic
_SUMMARY_FIELDS = tuple(
    f.name for f in dataclasses.fields(TrialRecord) if f.name not in ("taps", "wall_time_ms")
)


def _read_number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# each kind of taps.csv column as (writer, reader, what the reader expects);
# a reader raises ValueError on a value not of its kind
_KINDS = {
    "index": (str, int, "an index"),
    "number": (lambda v: "" if v is None else repr(float(v)), _read_number, "a finite number"),
    "flag": (lambda v: "1" if v else "0", lambda raw: ("0", "1").index(raw) == 1, "0 or 1"),
    "text": (str, str, "text"),
}
_TAP_KINDS = tuple(
    _KINDS["index" if name == "tap" else "flag" if name in ("in_contact", "clamped")
           else "text" if name in ("contact_mode", "status") else "number"]
    for name in Tap._fields
)
_WRITERS = tuple(writer for writer, _, _ in _TAP_KINDS)
# the number columns that may be blank, each with the columns blank with it:
# a reading or diagnostic alone, an err_* or int_* channel with its group
_BLANK_WITH = {
    name: (name,) for name in ("z_depth_mm", "alpha_pred_deg", "theta_deg", "r_mm", "v_mm")
} | {f"{p}{c}": [f"{p}{s}" for s in _SIX] for p in ("err_", "int_") for c in _SIX}


def export(records, out_dir) -> dict:
    """Write records.json, taps.csv, timings.json and metrics.json; returns
    the paths.

    Each value is written once. records.json (version 2) holds each trial's
    summary: every TrialRecord field but `taps` and `wall_time_ms`. taps.csv
    (version 2) holds every value of every tap, and timings.json each
    trial's `wall_time_ms`, as a list of {scenario_id, wall_time_ms} in
    record order. All but timings.json are deterministic byte-for-byte for a
    fixed record sequence (full-precision repr floats, no timestamps).
    """
    records = list(records)
    if not records:
        raise ValueError("export: no records to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out_dir / "records.json",
        "taps": out_dir / "taps.csv",
        "timings": out_dir / "timings.json",
        "metrics": out_dir / "metrics.json",
    }
    summaries = [{name: getattr(r, name) for name in _SUMMARY_FIELDS} for r in records]
    paths["records"].write_text(json.dumps({"version": _RECORDS_VERSION, "records": summaries}))
    lines = [_CSV_VERSION, ",".join(_CSV_COLUMNS)]
    for record in records:
        head = f"{record.scenario_id},{record.seed},"
        lines += [head + ",".join([w(v) for w, v in zip(_WRITERS, tap)]) for tap in record.taps]
    paths["taps"].write_text("\n".join(lines) + "\n")
    timings = [{"scenario_id": r.scenario_id, "wall_time_ms": r.wall_time_ms} for r in records]
    paths["timings"].write_text(json.dumps(timings))
    metrics = compute_metrics(records)
    paths["metrics"].write_text(json.dumps(dataclasses.asdict(metrics)))
    return paths


def _read_taps(path) -> tuple:
    """The column names of a taps.csv and its rows as (line number, raw
    fields); a row whose field count differs from the header's is rejected."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2 or lines[0] != _CSV_VERSION:
        raise ValueError(f"{path}: not a {_CSV_VERSION} file")
    columns = lines[1].split(",")
    rows = []
    for n, line in enumerate(lines[2:], 3):
        row = line.split(",")
        if len(row) != len(columns):
            raise ValueError(f"{path}: line {n}: expected {len(columns)} fields, got {len(row)}")
        rows.append((n, row))
    return columns, rows


def read_taps_csv(path):
    """Parse a taps.csv back into a list of column dicts (strings kept raw).
    A row whose field count differs from the header's is rejected, with the
    file and the line named."""
    columns, rows = _read_taps(path)
    return [dict(zip(columns, row)) for _, row in rows]


def _parse_tap(path, n: int, raw: list) -> Tap:
    """The Tap of taps.csv line n from its fields in Tap order. A value that
    is not of its column's kind, or a blank number whose column may not be
    blank or whose group is not blank throughout, is named by its line and
    column; of several, the first."""
    fields = dict(zip(Tap._fields, raw))
    values = []
    for (name, text), (_, read, expected) in zip(fields.items(), _TAP_KINDS):
        if text == "" and name in _BLANK_WITH and not any(fields[m] for m in _BLANK_WITH[name]):
            values.append(None)
            continue
        try:
            values.append(read(text))
        except ValueError:
            raise ValueError(
                f"{path}: line {n}, column {name!r}: expected {expected}, got {text!r}"
            ) from None
    return Tap._make(values)


def _require(value, where: str, *path: str):
    """The value at key path `path` of `value`, the record named `where`."""
    for depth, key in enumerate(path, 1):
        if not isinstance(value, dict) or key not in value:
            raise ScenarioError(f"{where} has no field {'.'.join(path[:depth])!r}")
        value = value[key]
    return value


def _read_summary(where: str, rec: dict) -> dict:
    """The TrialRecord fields of one records.json summary, each value read
    once. Every value plot draws, and the scenario_id, outcome and y_targ
    that export and compute_metrics read, goes through the input kinds, and
    meta's shape and zone radii through `inputs.read` by the tables of
    ObjectShape and ControllerConfig, as a scenario file's are, so a bad
    value is named by its record path; `meta` is kept as it is."""

    def at(reader, *path):
        return reader(_require(rec, where, *path), ".".join((where, *path)))

    meta = _require(rec, where, "meta")
    at(_vector(6), "meta", "target_pose_mm_deg")
    shape = read(_require(rec, where, "meta", "shape"), ObjectShape.KEYS,
                 f"{where}.meta.shape", {})
    if not {"polygon", "radius"} & shape.keys():
        raise ScenarioError(f"{where}.meta.shape has no field 'polygon_mm' or 'circle_radius_mm'")
    radii = ("approach_zone_radius_mm", "termination_radius_mm")
    read({key: _require(rec, where, "meta", key) for key in radii}, ControllerConfig.KEYS,
         f"{where}.meta", {})
    final_pusher_pose = at(_vector(6), "final_pusher_pose")
    tap_total = at(_count, "tap_total")
    outcome = _require(rec, where, "outcome")
    if outcome not in _OUTCOMES:
        raise ScenarioError(
            f"{where}.outcome: expected one of {', '.join(_OUTCOMES)}, got {outcome!r}"
        )
    y_targ = _require(rec, where, "y_targ")
    if outcome == "reached":
        y_targ = _number(y_targ, f"{where}.y_targ")
    elif y_targ is not None:
        raise ScenarioError(
            f"{where}.y_targ: expected null for outcome {outcome!r}, got {y_targ!r}"
        )
    return {
        "scenario_id": at(_string, "scenario_id"),
        "seed": at(_seed, "seed"),
        "outcome": outcome,
        "y_targ": y_targ,
        "tap_total": tap_total,
        "final_pusher_pose": final_pusher_pose,
        "final_object_pose": at(_vector(3), "final_object_pose"),
        "meta": meta,
    }


def load_records(records_path) -> list:
    """Read a records.json (version 2) and the taps.csv beside it back into
    TrialRecords, equal to the ones export wrote but for `wall_time_ms`,
    which is None (timings.json holds it).

    Every value plot draws, and the scenario_id, outcome and y_targ that
    export and compute_metrics read, is checked on the way in: a bad summary
    value is named by the records file and its record path, a bad tap value,
    or a seed other than its record's, by its taps.csv line and column, a
    taps.csv header other than the one export writes by its first column
    that differs, and a taps.csv row that is not the next tap of the records
    (by scenario_id, tap index and each record's tap_total) by its line.
    """
    path = Path(records_path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    version = data.get("version") if isinstance(data, dict) else None
    if version != _RECORDS_VERSION:
        raise ValueError(f"{path}: records version {version!r}, expected {_RECORDS_VERSION}")
    summaries = data.get("records")
    if not isinstance(summaries, list):
        raise ValueError(f"{path}: expected a 'records' list")
    for idx, rec in enumerate(summaries):
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: records[{idx}] is not a JSON object")
    try:
        summaries = [
            _read_summary(f"{path}: records[{idx}]", rec) for idx, rec in enumerate(summaries)
        ]
    except ScenarioError as exc:  # the CLI reports a ScenarioError as a scenario file's
        raise ValueError(str(exc)) from exc
    taps_path = path.with_name("taps.csv")
    columns, rows = _read_taps(taps_path)
    if tuple(columns) != _CSV_COLUMNS:
        pairs = list(zip_longest(columns, _CSV_COLUMNS))
        k = next(k for k, (got, want) in enumerate(pairs) if got != want)
        got, want = ("the end of the header" if c is None else repr(c) for c in pairs[k])
        raise ValueError(f"{taps_path}: line 2, column {k + 1}: expected {want}, got {got}")
    # so each row is scenario_id, seed, then the Tap's fields
    rows = iter(rows)
    n = 2  # the line of the last row read
    records = []
    for summary in summaries:
        sid, seed = summary["scenario_id"], summary["seed"]
        taps = []
        for k in range(summary["tap_total"]):
            n, row = next(rows, (n + 1, None))
            if row is None:
                raise ValueError(
                    f"{taps_path}: line {n}: expected tap {k} of {sid!r}, got the end of the file"
                )
            if (row[0], row[2]) != (sid, str(k)):
                raise ValueError(
                    f"{taps_path}: line {n}: expected tap {k} of {sid!r}, "
                    f"got tap {row[2]} of {row[0]!r}"
                )
            if row[1] != str(seed):
                raise ValueError(
                    f"{taps_path}: line {n}, column 'seed': expected {seed}, "
                    f"the seed of {sid!r}, got {row[1]!r}"
                )
            taps.append(_parse_tap(taps_path, n, row[2:]))
        records.append(TrialRecord(**summary, taps=taps, wall_time_ms=None))
    extra = next(rows, None)
    if extra is not None:
        n, row = extra
        raise ValueError(
            f"{taps_path}: line {n}: expected the end of the file, "
            f"got tap {row[2]} of {row[0]!r}"
        )
    return records


# ---------------------------------------------------------------------------
# plotting (self-contained SVG)
# ---------------------------------------------------------------------------

# plot an object outline every this many taps, plus the last
_OUTLINE_EVERY_K = 5
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def plot(records, out_path) -> Path:
    """Render sensor paths, periodic object outlines and the target zone to
    a self-contained SVG (no external assets).

    Draws TrialRecords as run_trial returns them or as load_records reads
    them back from files, where their values are checked; plot checks none
    again.
    """
    records = list(records)
    if not records:
        raise ValueError("plot: no records to draw")

    pts = []
    for rec in records:
        tgt = rec.meta["target_pose_mm_deg"]
        pts.append([tgt[1], tgt[2]])
        pts.append(list(rec.final_pusher_pose[1:3]))
        for tap in rec.taps:
            pts.append([tap.pusher_y_mm, tap.pusher_z_mm])
            pts.append([tap.object_y_mm, tap.object_z_mm])
    pts = np.asarray(pts, dtype=float)
    # Python floats, so that sx and sy pay no numpy overhead per point
    lo_y, lo_z = (pts.min(axis=0) - 80.0).tolist()
    hi_y, hi_z = (pts.max(axis=0) + 80.0).tolist()
    width = 800.0
    scale = width / (hi_y - lo_y)
    height = (hi_z - lo_z) * scale

    def sx(y):
        return (y - lo_y) * scale

    def sy(z):
        return height - (z - lo_z) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    meta0 = records[0].meta
    tgt = meta0["target_pose_mm_deg"]
    rho = float(meta0["approach_zone_radius_mm"])
    term = float(meta0["termination_radius_mm"])
    parts.append(
        f'<circle cx="{sx(tgt[1]):.2f}" cy="{sy(tgt[2]):.2f}" r="{rho * scale:.2f}" '
        'fill="none" stroke="#999999" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<circle cx="{sx(tgt[1]):.2f}" cy="{sy(tgt[2]):.2f}" r="{term * scale:.2f}" '
        'fill="#2ca02c" fill-opacity="0.35" stroke="#2ca02c"/>'
    )

    for idx, rec in enumerate(records):
        color = _PALETTE[idx % len(_PALETTE)]
        shape_dict = rec.meta["shape"]
        taps = rec.taps
        if taps:
            path = " ".join(f"{sx(t.pusher_y_mm):.2f},{sy(t.pusher_z_mm):.2f}" for t in taps)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.2"/>'
            )
        shown = [t for i, t in enumerate(taps) if i % _OUTLINE_EVERY_K == 0]
        if taps and (len(taps) - 1) % _OUTLINE_EVERY_K != 0:
            shown.append(taps[-1])
        for tap in shown:
            y, z, alpha = tap.object_y_mm, tap.object_z_mm, tap.object_alpha_deg
            if "polygon_mm" in shape_dict:
                # one matrix product over the whole outline
                a = math.radians(alpha)
                c, s = math.cos(a), math.sin(a)
                verts = np.asarray(shape_dict["polygon_mm"], dtype=float)
                verts = (np.array([[c, -s], [s, c]]) @ verts.T).T + np.array([y, z])
                pg = " ".join(f"{sx(py):.2f},{sy(pz):.2f}" for py, pz in verts.tolist())
                parts.append(
                    f'<polygon points="{pg}" fill="none" stroke="{color}" '
                    'stroke-opacity="0.3" stroke-width="0.8"/>'
                )
            else:
                r = float(shape_dict["circle_radius_mm"]) * scale
                parts.append(
                    f'<circle cx="{sx(y):.2f}" cy="{sy(z):.2f}" r="{r:.2f}" '
                    f'fill="none" stroke="{color}" stroke-opacity="0.3" '
                    'stroke-width="0.8"/>'
                )
    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path
