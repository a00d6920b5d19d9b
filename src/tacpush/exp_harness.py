"""Experiment harness: trial runner, offset/shape grids, metrics and export.

A trial loops sense -> control_step -> simulate_tap until the controller
reports a terminal status or the tap budget runs out. The tactile reading
for each control step is taken at the deepest point of the previous tap
(the only configuration reliably in contact after rigid overlap
resolution); the controller itself works from the post-retraction pose.
Trials are deterministic given (scenario, seed) and embarrassingly
parallel; per-trial seeds come from a splitmix64-style hash of
(master seed, cell index, trial index) so worker scheduling cannot change
any result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .push_controller import ControllerState, Status, control_step
from .push_dynamics import PhysicsFault, simulate_tap
from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    builtin_shapes,
    heading_dir,
    rot2,
    shape_to_dict,
)
from .scenario import Scenario
from .tactile_sense import NoiseModel, apply_noise, sense_contact

__all__ = [
    "EXP1_ANGULAR_OFFSETS_DEG",
    "EXP1_SPATIAL_OFFSETS_MM",
    "EXP2_SHAPE_NAMES",
    "EXP3_SHAPE_NAMES",
    "EXP_START_POSES",
    "EXP_TARGET_POSE",
    "Metrics",
    "TapLog",
    "TrialRecord",
    "compute_metrics",
    "compute_y_targ",
    "derive_seed",
    "exp1_scenario",
    "exp2_scenario",
    "exp3_scenario",
    "export",
    "place_corner_contact",
    "place_offset_contact",
    "place_random_orientation",
    "plot",
    "read_taps_csv",
    "record_to_dict",
    "run_experiment_1",
    "run_experiment_2",
    "run_experiment_3",
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

@dataclass
class TapLog:
    """One executed tap: poses after the tap plus the control diagnostics."""

    tap: int
    pusher_pose: tuple
    object_pose: tuple
    in_contact: bool
    z_depth: float | None
    alpha_pred: float | None
    clamped: bool
    theta: float | None
    r: float | None
    v: float
    error6: tuple | None
    integral6: tuple
    contact_mode: str
    status: str


@dataclass
class TrialRecord:
    scenario_id: str
    seed: int
    taps: list
    outcome: str
    y_targ: float | None
    tap_total: int
    wall_time_ms: float
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
    axis = heading_dir(final_pusher_pose.alpha)
    rel = target_pose.position - final_pusher_pose.position
    return abs(float(axis[0] * rel[1] - axis[1] * rel[0]))


def _euler_tuple(p: PlanarPose) -> tuple:
    return (0.0, p.y, p.z, p.alpha, 0.0, 0.0)


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
    sense_world = world
    rng = np.random.default_rng(scenario.rng_seed)
    state = ControllerState()
    taps: list[TapLog] = []
    meta = {
        "target_pose_mm_deg": list(_euler_tuple(target)),
        "shape": shape_to_dict(shape),
        "approach_zone_radius_mm": cfg.approach_zone_radius,
        "termination_radius_mm": cfg.termination_radius,
        "noise_enabled": scenario.noise.enabled,
    }
    try:
        while True:
            pred = sense_contact(sense_world, shape)
            if scenario.noise.enabled:
                pred = apply_noise(pred, scenario.noise, rng)
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
            world, sense_pose, contact = simulate_tap(
                world,
                shape,
                decision.command,
                tap_forward=cfg.tap_forward,
                tap_back=cfg.tap_back,
            )
            sense_world = WorldState(world.object_pose, sense_pose)
            taps.append(
                TapLog(
                    tap=len(taps),
                    pusher_pose=_euler_tuple(world.pusher_pose),
                    object_pose=(
                        world.object_pose.y, world.object_pose.z, world.object_pose.alpha
                    ),
                    in_contact=pred.in_contact,
                    z_depth=pred.z_depth,
                    alpha_pred=pred.alpha,
                    clamped=pred.clamped,
                    theta=decision.theta,
                    r=decision.r,
                    v=decision.v,
                    error6=None if decision.error6 is None else tuple(decision.error6),
                    integral6=tuple(decision.integral6),
                    contact_mode=contact.mode.value,
                    status=decision.status.value,
                )
            )
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
        final_pusher_pose=_euler_tuple(world.pusher_pose),
        final_object_pose=(world.object_pose.y, world.object_pose.z, world.object_pose.alpha),
        meta=meta,
    )


def run_trials(scenarios, workers: int = 1):
    """Run a batch of scenarios, optionally on a process pool.

    Results come back in input order whatever the worker count, so output
    files are byte-identical across pool sizes.
    """
    scenarios = list(scenarios)
    if workers <= 1 or len(scenarios) <= 1:
        return [run_trial(s) for s in scenarios]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, scenarios, chunksize=1))


# ---------------------------------------------------------------------------
# object placement
# ---------------------------------------------------------------------------

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
    if not shape.is_polygon:
        raise ValueError("place_offset_contact needs a polygonal shape")
    axis = heading_dir(pusher_start.alpha)
    contact = pusher_start.position + _SEAT_DISTANCE_MM * axis
    verts = shape.polygon
    edge = verts[1] - verts[0]
    e_dir = edge / np.linalg.norm(edge)
    mid = 0.5 * (verts[0] + verts[1])
    q_c = mid + spatial_offset * e_dir
    n_e = shape.edge_normals[0]
    base = math.degrees(math.atan2(-axis[1], -axis[0])) - math.degrees(
        math.atan2(n_e[1], n_e[0])
    )
    omega = base + angular_offset
    origin = contact - rot2(omega) @ q_c
    return PlanarPose(float(origin[0]), float(origin[1]), omega)


def place_corner_contact(shape: ObjectShape, pusher_start: PlanarPose) -> PlanarPose:
    """Centre the first external corner on the sensor tip (unstable start).

    Vertex 0 sits INITIAL_CONTACT_DEPTH_MM into the tip, dead ahead of it,
    with its outward bisector pointing back at the sensor. Circles have no
    corners: the nearest boundary point is placed dead ahead instead.
    """
    axis = heading_dir(pusher_start.alpha)
    if not shape.is_polygon:
        centre = pusher_start.position + (_SEAT_DISTANCE_MM + shape.radius) * axis
        return PlanarPose(float(centre[0]), float(centre[1]), 0.0)
    v = shape.polygon[0]
    n_prev = shape.edge_normals[-1]
    n_next = shape.edge_normals[0]
    b = n_prev + n_next
    b = b / np.linalg.norm(b)
    omega = math.degrees(math.atan2(-axis[1], -axis[0])) - math.degrees(
        math.atan2(b[1], b[0])
    )
    vpos = pusher_start.position + _SEAT_DISTANCE_MM * axis
    origin = vpos - rot2(omega) @ v
    return PlanarPose(float(origin[0]), float(origin[1]), omega)


def place_random_orientation(
    shape: ObjectShape, pusher_start: PlanarPose, heading_deg: float
) -> PlanarPose:
    """Seat the object at a fixed heading dead ahead of the tip by sliding it
    along the push axis until the boundary sits INITIAL_CONTACT_DEPTH_MM
    into the disc."""
    axis = heading_dir(pusher_start.alpha)

    def sd_at(t: float) -> float:
        pos = pusher_start.position + t * axis
        pose = PlanarPose(float(pos[0]), float(pos[1]), heading_deg)
        sd, _, _, _ = boundary_probe(shape, pose, pusher_start.position)
        return sd

    lo = 0.0
    hi = TIP_RADIUS_MM + shape.max_extent() + INITIAL_CONTACT_DEPTH_MM + 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sd_at(mid) < _SEAT_DISTANCE_MM:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    pos = pusher_start.position + t * axis
    return PlanarPose(float(pos[0]), float(pos[1]), heading_deg)


# ---------------------------------------------------------------------------
# experiment grids
# ---------------------------------------------------------------------------

def exp1_scenario(
    spatial_offset: float,
    angular_offset: float,
    seed: int,
    shape: ObjectShape | None = None,
    noise: NoiseModel = NoiseModel(),
    max_taps: int = 300,
    name: str | None = None,
) -> Scenario:
    """Contact-offset trial: square pushed from the work-frame origin."""
    shape = shape if shape is not None else builtin_shapes()["blue_square"]
    start = EXP_START_POSES[0]
    return Scenario(
        name=name or f"exp1_o{spatial_offset:+.0f}_a{angular_offset:+.0f}_s{seed & 0xFFFF:04x}",
        object=shape,
        object_start_pose=place_offset_contact(shape, start, spatial_offset, angular_offset),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
        noise=noise,
        rng_seed=seed,
        max_taps=max_taps,
    )


def exp2_scenario(
    shape_name: str,
    start_index: int,
    seed: int,
    max_taps: int = 300,
) -> Scenario:
    """Shape/start-pose trial with the unstable corner-centred initialization."""
    shape = builtin_shapes()[shape_name]
    start = EXP_START_POSES[start_index]
    return Scenario(
        name=f"exp2_{shape_name}_start{start_index + 1}_s{seed & 0xFFFF:04x}",
        object=shape,
        object_start_pose=place_corner_contact(shape, start),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
                rng_seed=seed,
        max_taps=max_taps,
    )


def exp3_scenario(
    shape_name: str,
    heading_deg: float,
    seed: int,
    max_taps: int = 600,
) -> Scenario:
    """Random-orientation trial at the second start pose.

    The tap budget is doubled relative to the offset-grid runs: adversarial
    orientations of non-convex outlines can force the pusher to work the
    long way around the object before the bearing unwinds.
    """
    shape = builtin_shapes()[shape_name]
    start = EXP_START_POSES[1]
    return Scenario(
        name=f"exp3_{shape_name}_h{heading_deg:06.1f}_s{seed & 0xFFFF:04x}",
        object=shape,
        object_start_pose=place_random_orientation(shape, start, heading_deg),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
                rng_seed=seed,
        max_taps=max_taps,
    )


def run_experiment_1(
    trials_per_cell: int = 10,
    master_seed: int = 0,
    workers: int = 1,
):
    """Offset grid: 7 spatial x 3 angular offsets x trials_per_cell."""
    scenarios = []
    for i, off in enumerate(EXP1_SPATIAL_OFFSETS_MM):
        for j, ang in enumerate(EXP1_ANGULAR_OFFSETS_DEG):
            cell = i * len(EXP1_ANGULAR_OFFSETS_DEG) + j
            for t in range(trials_per_cell):
                seed = derive_seed(master_seed, cell, t)
                scenarios.append(
                    exp1_scenario(
                        off,
                        ang,
                        seed,
                        name=f"exp1_o{off:+.0f}_a{ang:+.0f}_t{t}",
                    )
                )
    records = run_trials(scenarios, workers)
    return compute_metrics(records), records


def run_experiment_2(
    shape_names=EXP2_SHAPE_NAMES,
    start_indices=(0, 1, 2),
    trials_per_cell: int = 10,
    master_seed: int = 0,
    workers: int = 1,
):
    """Shape grid: len(shapes) x len(starts) x trials_per_cell, corner starts."""
    scenarios = []
    for i, shape_name in enumerate(shape_names):
        for j in start_indices:
            cell = i * len(EXP_START_POSES) + j
            for t in range(trials_per_cell):
                seed = derive_seed(master_seed + 1, cell, t)
                sc = exp2_scenario(shape_name, j, seed)
                sc.name = f"exp2_{shape_name}_start{j + 1}_t{t}"
                scenarios.append(sc)
    records = run_trials(scenarios, workers)
    return compute_metrics(records), records


def run_experiment_3(
    shape_names=EXP3_SHAPE_NAMES,
    trials_per_shape: int = 10,
    master_seed: int = 0,
    workers: int = 1,
):
    """Random-orientation runs at start 2 for irregular (and control) shapes."""
    scenarios = []
    for i, shape_name in enumerate(shape_names):
        for t in range(trials_per_shape):
            init_rng = np.random.default_rng(derive_seed(master_seed + 2, i, t, 0))
            heading = float(init_rng.uniform(0.0, 360.0))
            seed = derive_seed(master_seed + 2, i, t, 1)
            sc = exp3_scenario(shape_name, heading, seed)
            sc.name = f"exp3_{shape_name}_t{t}"
            scenarios.append(sc)
    records = run_trials(scenarios, workers)
    return compute_metrics(records), records


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_CSV_VERSION = "# tacpush-taps-v1"
_CSV_COLUMNS = (
    "scenario_id,seed,tap,pusher_y_mm,pusher_z_mm,pusher_alpha_deg,"
    "object_y_mm,object_z_mm,object_alpha_deg,in_contact,z_depth_mm,"
    "alpha_pred_deg,clamped,theta_deg,r_mm,v_mm,err_x_mm,err_y_mm,err_z_mm,"
    "err_alpha_deg,err_beta_deg,err_gamma_deg,contact_mode,status"
)


def _csv_num(value) -> str:
    return "" if value is None else repr(float(value))


def record_to_dict(record: TrialRecord) -> dict:
    return dataclasses.asdict(record)


def _tap_csv_row(record: TrialRecord, tap: TapLog) -> str:
    err = tap.error6 if tap.error6 is not None else (None,) * 6
    fields = [
        record.scenario_id,
        str(record.seed),
        str(tap.tap),
        _csv_num(tap.pusher_pose[1]),
        _csv_num(tap.pusher_pose[2]),
        _csv_num(tap.pusher_pose[3]),
        _csv_num(tap.object_pose[0]),
        _csv_num(tap.object_pose[1]),
        _csv_num(tap.object_pose[2]),
        "1" if tap.in_contact else "0",
        _csv_num(tap.z_depth),
        _csv_num(tap.alpha_pred),
        "1" if tap.clamped else "0",
        _csv_num(tap.theta),
        _csv_num(tap.r),
        _csv_num(tap.v),
        *[_csv_num(e) for e in err],
        tap.contact_mode,
        tap.status,
    ]
    return ",".join(fields)


def export(records, out_dir) -> dict:
    """Write records.json, taps.csv and metrics.json; returns the paths.

    taps.csv is deterministic byte-for-byte for a fixed record sequence
    (full-precision repr floats, no timestamps).
    """
    records = list(records)
    if not records:
        raise ValueError("export: no records to write")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "records": out_dir / "records.json",
        "taps": out_dir / "taps.csv",
        "metrics": out_dir / "metrics.json",
    }
    payload = {"version": 1, "records": [record_to_dict(r) for r in records]}
    paths["records"].write_text(json.dumps(payload, indent=1))
    lines = [_CSV_VERSION, _CSV_COLUMNS]
    for record in records:
        for tap in record.taps:
            lines.append(_tap_csv_row(record, tap))
    paths["taps"].write_text("\n".join(lines) + "\n")
    metrics = compute_metrics(records)
    paths["metrics"].write_text(json.dumps(dataclasses.asdict(metrics), indent=1))
    return paths


def read_taps_csv(path):
    """Parse a taps.csv back into a list of column dicts (strings kept raw)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _CSV_VERSION:
        raise ValueError(f"{path}: not a {_CSV_VERSION} file")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        rows.append(dict(zip(columns, line.split(","))))
    return rows


# ---------------------------------------------------------------------------
# plotting (self-contained SVG)
# ---------------------------------------------------------------------------

# plot an object outline every this many taps, plus the last
_OUTLINE_EVERY_K = 5
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _outline_points(shape_dict: dict, pose) -> np.ndarray | None:
    y, z, alpha = pose
    if "polygon_mm" in shape_dict:
        verts = np.asarray(shape_dict["polygon_mm"], dtype=float)
        return (rot2(alpha) @ verts.T).T + np.array([y, z])
    # circles are drawn separately
    return None


def plot(records, out_path) -> Path:
    """Render sensor paths, periodic object outlines and the target zone to
    a self-contained SVG (no external assets)."""
    dicts = [record_to_dict(r) if isinstance(r, TrialRecord) else r for r in records]
    if not dicts:
        raise ValueError("plot: no records to draw")

    pts = []
    for rec in dicts:
        tgt = rec["meta"]["target_pose_mm_deg"]
        pts.append([tgt[1], tgt[2]])
        pts.append(list(rec["final_pusher_pose"][1:3]))
        for tap in rec["taps"]:
            pts.append([tap["pusher_pose"][1], tap["pusher_pose"][2]])
            pts.append([tap["object_pose"][0], tap["object_pose"][1]])
    pts = np.asarray(pts, dtype=float)
    lo = pts.min(axis=0) - 80.0
    hi = pts.max(axis=0) + 80.0
    span = hi - lo
    width = 800.0
    scale = width / span[0]
    height = span[1] * scale

    def sx(y):
        return (y - lo[0]) * scale

    def sy(z):
        return height - (z - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    rec0 = dicts[0]
    tgt = rec0["meta"]["target_pose_mm_deg"]
    rho = float(rec0["meta"].get("approach_zone_radius_mm", 60.0))
    term = float(rec0["meta"].get("termination_radius_mm", 20.0))
    parts.append(
        f'<circle cx="{sx(tgt[1]):.2f}" cy="{sy(tgt[2]):.2f}" r="{rho * scale:.2f}" '
        'fill="none" stroke="#999999" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<circle cx="{sx(tgt[1]):.2f}" cy="{sy(tgt[2]):.2f}" r="{term * scale:.2f}" '
        'fill="#2ca02c" fill-opacity="0.35" stroke="#2ca02c"/>'
    )

    for idx, rec in enumerate(dicts):
        color = _PALETTE[idx % len(_PALETTE)]
        shape_dict = rec["meta"]["shape"]
        taps = rec["taps"]
        if taps:
            path = " ".join(
                f"{sx(t['pusher_pose'][1]):.2f},{sy(t['pusher_pose'][2]):.2f}"
                for t in taps
            )
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.2"/>'
            )
        shown = [t for i, t in enumerate(taps) if i % _OUTLINE_EVERY_K == 0]
        if taps and (len(taps) - 1) % _OUTLINE_EVERY_K != 0:
            shown.append(taps[-1])
        for tap in shown:
            pose = tap["object_pose"]
            if "polygon_mm" in shape_dict:
                verts = _outline_points(shape_dict, pose)
                pg = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in verts)
                parts.append(
                    f'<polygon points="{pg}" fill="none" stroke="{color}" '
                    'stroke-opacity="0.3" stroke-width="0.8"/>'
                )
            else:
                r = float(shape_dict["circle_radius_mm"]) * scale
                parts.append(
                    f'<circle cx="{sx(pose[0]):.2f}" cy="{sy(pose[1]):.2f}" r="{r:.2f}" '
                    f'fill="none" stroke="{color}" stroke-opacity="0.3" '
                    'stroke-width="0.8"/>'
                )
    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path
