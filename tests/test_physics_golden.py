"""Exact golden for resolve_substep: 504 fixed contact cases, bit for bit.

The cases and their expected outputs live in data/resolve_substep_golden.json.
Each output is stored as the repr of every float, so any change to the
solver's arithmetic, including a reordering of its floating-point
operations, fails this test. The cases cover all 7 catalog shapes with
perturbed friction, and sticking, sliding, separated and grazing contacts,
resting and retreating tips, and tips on polygon vertices.

Regenerate the file only for an intended change of the physics:
`PYTHONPATH=src python tests/test_physics_golden.py`.
"""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from tacpush.push_dynamics import PENETRATION_TOL_MM, resolve_substep
from tacpush.scene import (
    TIP_RADIUS_MM,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
)

from physics_oracle import to_work

GOLDEN = Path(__file__).parent / "data" / "resolve_substep_golden.json"
SEED = 20201202
CASES_PER_SHAPE = 72
# kind -> (penetration range at the displaced tip in mm, drive deviation
# from the inward normal in degrees, or None for a resting tip)
KINDS = {
    "push": ((0.02, 0.4), 85.0),
    "any_drive": ((0.02, 0.4), 180.0),
    "grazing": ((1e-4, PENETRATION_TOL_MM), 85.0),
    "separated": ((-3.0, -1e-4), 180.0),
    "resting": ((0.02, 0.4), None),
    "vertex": ((-0.2, 0.4), 85.0),
}


def _rotated(v, deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _vertex_contact(shape, pose, rng):
    """A convex vertex and an outward direction inside its normal cone."""
    verts = shape.polygon
    n = len(verts)
    turns = [(verts[i] - verts[i - 1], verts[(i + 1) % n] - verts[i]) for i in range(n)]
    convex = [i for i, (a, b) in enumerate(turns) if a[0] * b[1] - a[1] * b[0] > 0.0]
    i = convex[int(rng.integers(len(convex)))]
    n_prev, n_next = shape.edge_normals[i - 1], shape.edge_normals[i]
    cross = n_prev[0] * n_next[1] - n_prev[1] * n_next[0]
    span = math.degrees(math.atan2(cross, float(n_prev @ n_next)))
    n_local = _rotated(n_prev, float(rng.uniform(0.05, 0.95)) * span)
    point = to_work(pose, verts[i])
    n_out = to_work(pose, n_local) - np.array([pose.y, pose.z])
    return point, n_out


def generate_cases():
    rng = np.random.default_rng(SEED)
    catalog = builtin_shapes()
    cases = []
    for k in range(CASES_PER_SHAPE):
        kind = list(KINDS)[k % len(KINDS)]
        (pen_lo, pen_hi), deviation = KINDS[kind]
        for name in sorted(catalog):
            base = catalog[name]
            mu = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.05, 1.0))
            shape = dataclasses.replace(
                base,
                f_max=base.f_max * float(rng.uniform(0.5, 1.5)),
                m_max=base.m_max * float(rng.uniform(0.5, 1.5)),
                mu_contact=mu,
            )
            pose = PlanarPose(*(float(v) for v in rng.uniform(-60.0, 60.0, size=2)),
                              float(rng.uniform(-180.0, 180.0)))
            if kind == "vertex" and shape.radius is None:
                point, n_out = _vertex_contact(shape, pose, rng)
            else:
                ang = float(rng.uniform(0.0, 2.0 * math.pi))
                far = (pose.y + 400.0 * math.cos(ang), pose.z + 400.0 * math.sin(ang))
                _, point, n_out, _ = boundary_probe(shape, pose, far)
                point, n_out = np.asarray(point), np.asarray(n_out)
            pen = float(rng.uniform(pen_lo, pen_hi))
            tip_new = point + (TIP_RADIUS_MM - pen) * n_out
            if deviation is None:
                disp = np.zeros(2)
            else:
                dev = float(rng.uniform(-deviation, deviation))
                disp = float(rng.uniform(0.01, 0.5)) * _rotated(-n_out, dev)
            cases.append({
                "shape": name,
                "kind": kind,
                "f_max": shape.f_max,
                "m_max": shape.m_max,
                "mu_contact": shape.mu_contact,
                "object_pose": [pose.y, pose.z, pose.alpha],
                "tip": [float(v) for v in tip_new - disp],
                "disp": [float(v) for v in disp],
            })
    return cases


def run_case(case) -> str:
    shape = dataclasses.replace(
        builtin_shapes()[case["shape"]],
        f_max=case["f_max"], m_max=case["m_max"], mu_contact=case["mu_contact"],
    )
    try:
        pose, contact = resolve_substep(
            shape, PlanarPose(*case["object_pose"]), np.array(case["tip"]), np.array(case["disp"])
        )
    except Exception as exc:  # a fault is an output like any other
        return f"{type(exc).__name__}: {exc}"
    numbers = (pose.y, pose.z, pose.alpha, *contact.point, *contact.normal,
               contact.penetration)
    return " ".join([*(repr(float(v)) for v in numbers), contact.mode.value])


def load_golden():
    return json.loads(GOLDEN.read_text())["cases"]


def test_resolve_substep_matches_golden_exactly():
    cases = load_golden()
    mismatches = [
        (i, case["expected"], got)
        for i, case in enumerate(cases)
        if (got := run_case(case)) != case["expected"]
    ]
    assert not mismatches, (
        f"{len(mismatches)} of {len(cases)} cases differ, first: {mismatches[0]}"
    )


def test_golden_covers_shapes_and_contact_modes():
    cases = load_golden()
    assert {c["shape"] for c in cases} == set(builtin_shapes())
    assert {c["kind"] for c in cases} == set(KINDS)
    modes = Counter(c["expected"].split()[-1] for c in cases)
    for mode in ("separated", "sticking", "sliding_left", "sliding_right"):
        assert modes[mode] >= 20, modes
    grazing = [
        c for c in cases
        if c["expected"].split()[-1] != "separated"
        and float(c["expected"].split()[-2]) <= PENETRATION_TOL_MM
        and [float(v) for v in c["expected"].split()[:3]] == c["object_pose"]
    ]
    assert len(grazing) >= 20
    assert sum(c["mu_contact"] == 0.0 for c in cases) >= 20


if __name__ == "__main__":
    cases = generate_cases()
    for case in cases:
        case["expected"] = run_case(case)
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f'{{"seed": {SEED}, "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(cases)} cases to {GOLDEN}")
