"""Exact golden for boundary_probe: seeded queries on every catalog shape.

The queries and their expected outputs live in
data/boundary_probe_golden.json. Each output is the repr of the signed
distance, the world-frame point and normal, and the feature, so any change
to the probe's arithmetic, including a reordering of its floating-point
operations, fails this test. Every shape is probed at random poses from
points inside and outside the outline, near its vertices (on them, and a
hair off them), on the interior and exterior bisectors of its vertex
angles, where the two edges meeting there are nearly tied, and on and
just off its edge midpoints; the circle is also probed at its centre.

Regenerate the file only for an intended change of the probe:
`PYTHONPATH=src python tests/test_probe_golden.py`.
"""

import dataclasses
import json
import math
import pickle
from collections import Counter
from pathlib import Path

import numpy as np

from tacpush.scene import PlanarPose, boundary_probe, builtin_shapes

from physics_oracle import to_work

GOLDEN = Path(__file__).parent / "data" / "boundary_probe_golden.json"
SEED = 20201313
POSES_PER_SHAPE = 12
KINDS = ("inside", "outside", "vertex", "near_vertex", "bisector", "edge")


def _local_queries(shape, kind: str, rng) -> list:
    """A few object-frame query points of one kind."""
    if shape.radius is not None:
        r = shape.radius
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        direction = np.array([math.cos(ang), math.sin(ang)])
        radii = {
            "inside": [float(rng.uniform(0.0, r))],
            "outside": [float(rng.uniform(r, 3.0 * r))],
            "vertex": [0.0],  # the centre, where every direction is nearest
            "near_vertex": [float(rng.uniform(1e-13, 1e-6))],
            "bisector": [r * (1.0 - 1e-12), r * (1.0 + 1e-12)],
            "edge": [r],
        }[kind]
        return [d * direction for d in radii]
    verts = shape.polygon
    n = len(verts)
    i = int(rng.integers(n))
    v = verts[i]
    e_prev, e_next = shape.edge_normals[i - 1], shape.edge_normals[i]
    if kind in ("inside", "outside"):
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        span = hi - lo
        out = []
        while len(out) < 3:
            q = lo - 0.3 * span + rng.uniform(size=2) * 1.6 * span
            sd = boundary_probe(shape, PlanarPose(), q)[0]
            if (sd < 0.0) == (kind == "inside"):
                out.append(q)
        return out
    if kind == "vertex":
        return [v.copy()]
    if kind == "near_vertex":
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        eps = 10.0 ** float(rng.uniform(-12.0, -3.0))
        return [v + eps * np.array([math.cos(ang), math.sin(ang)])]
    if kind == "bisector":
        b = e_prev + e_next
        b = b / math.hypot(b[0], b[1])
        d = float(rng.uniform(0.01, 15.0))
        return [v + d * b, v - d * b]
    # "edge": the midpoint of the edge starting at vertex i, on and off it
    mid = 0.5 * (v + verts[(i + 1) % n])
    off = float(rng.uniform(1e-9, 2.0))
    return [mid, mid + off * e_next, mid - off * e_next]


def generate_cases():
    rng = np.random.default_rng(SEED)
    catalog = builtin_shapes()
    cases = []
    for name in sorted(catalog):
        shape = catalog[name]
        for k in range(POSES_PER_SHAPE):
            alpha = (0.0, 90.0)[k] if k < 2 else float(rng.uniform(-180.0, 180.0))
            pose = PlanarPose(*(float(v) for v in rng.uniform(-60.0, 60.0, size=2)), alpha)
            for kind in KINDS:
                for q in _local_queries(shape, kind, rng):
                    query = to_work(pose, q)
                    cases.append({
                        "shape": name,
                        "kind": kind,
                        "pose": [pose.y, pose.z, pose.alpha],
                        "query": [float(query[0]), float(query[1])],
                    })
    return cases


def probe_case(shape, case) -> str:
    sd, point, normal, (feature, index) = boundary_probe(
        shape, PlanarPose(*case["pose"]), np.array(case["query"])
    )
    numbers = (sd, *point, *normal)
    return " ".join([*(repr(float(v)) for v in numbers), feature, str(index)])


def load_golden():
    return json.loads(GOLDEN.read_text())["cases"]


def _mismatches(cases, shapes) -> list:
    return [
        (i, case["expected"], got)
        for i, case in enumerate(cases)
        if (got := probe_case(shapes[case["shape"]], case)) != case["expected"]
    ]


def test_boundary_probe_matches_golden_exactly():
    cases = load_golden()
    bad = _mismatches(cases, builtin_shapes())
    assert not bad, f"{len(bad)} of {len(cases)} cases differ, first: {bad[0]}"


def test_pickled_and_friction_variant_shapes_probe_identically():
    # the pool pickles scenarios, and a friction variant re-derives its own
    # edge tables in the constructor: both must probe bit for bit alike
    cases = load_golden()
    catalog = builtin_shapes()
    pickled = {name: pickle.loads(pickle.dumps(s)) for name, s in catalog.items()}
    variants = {
        name: dataclasses.replace(s, f_max=2.0 * s.f_max, mu_contact=0.3)
        for name, s in catalog.items()
    }
    for shapes in (pickled, variants):
        bad = _mismatches(cases, shapes)
        assert not bad, f"{len(bad)} of {len(cases)} cases differ, first: {bad[0]}"


def test_golden_covers_shapes_kinds_and_features():
    cases = load_golden()
    assert {c["shape"] for c in cases} == set(builtin_shapes())
    assert {c["kind"] for c in cases} == set(KINDS)
    features = Counter(c["expected"].split()[-2] for c in cases)
    assert features["edge"] >= 100 and features["vertex"] >= 100 and features["arc"] >= 50
    signs = Counter(float(c["expected"].split()[0]) < 0.0 for c in cases)
    assert signs[True] >= 100 and signs[False] >= 100


if __name__ == "__main__":
    cases = generate_cases()
    catalog = builtin_shapes()
    for case in cases:
        case["expected"] = probe_case(catalog[case["shape"]], case)
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f'{{"seed": {SEED}, "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(cases)} cases to {GOLDEN}")
