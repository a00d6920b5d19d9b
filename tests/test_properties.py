"""Property-based invariants of the geometry kernel, the physics and the
controller, checked on generated inputs with hypothesis.

Every test is derandomized, so a run is reproducible and a failure is seen
on every run, not only on an unlucky one.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tacpush.push_controller import (
    ControllerConfig,
    ControllerState,
    Status,
    control_step,
)
from tacpush.push_dynamics import (
    PENETRATION_TOL_MM,
    SUBSTEP_CAP_MM,
    ContactMode,
    PhysicsFault,
    resolve_substep,
)
from tacpush.scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    builtin_shapes,
)
from tacpush.tactile_sense import ALPHA_RANGE_DEG, Z_RANGE_MM, PosePrediction

SAMPLES_PER_OUTLINE = 4000

poses = st.builds(
    PlanarPose, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-180.0, 180.0)
)


@st.composite
def star_polygons(draw):
    """A simple CCW polygon, star-shaped about the origin.

    Vertex angles increase strictly around the origin, less than half a
    turn apart, so the outline never crosses itself and contains the origin.
    Equal radii put every vertex on one circle, which makes the polygon
    convex; unequal radii usually make it non-convex.
    """
    n = draw(st.integers(3, 12))
    jitter = draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))
    angles = [2.0 * math.pi * (k + j) / n for k, j in enumerate(jitter)]
    if draw(st.booleans()):
        radii = [draw(st.floats(10.0, 60.0))] * n
    else:
        radii = draw(st.lists(st.floats(10.0, 60.0), min_size=n, max_size=n))
    return np.array([[r * math.cos(a), r * math.sin(a)] for r, a in zip(radii, angles)])


def inside_polygon(q, verts) -> bool:
    """Crossing-number inside test for a point in the polygon's frame."""
    inside = False
    for (y0, z0), (y1, z1) in zip(verts, np.roll(verts, -1, axis=0)):
        if (z0 > q[1]) != (z1 > q[1]):
            y_cross = y0 + (q[1] - z0) * (y1 - y0) / (z1 - z0)
            if q[0] < y_cross:
                inside = not inside
    return inside


def dense_outline(verts) -> tuple:
    """Points along the closed outline and their largest spacing."""
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    counts = np.maximum(np.ceil(lengths / lengths.sum() * SAMPLES_PER_OUTLINE), 2).astype(int)
    pts = [v + np.linspace(0.0, 1.0, c, endpoint=False)[:, None] * e
           for v, e, c in zip(verts, edges, counts)]
    return np.vstack(pts), float(np.max(lengths / counts))


def check_probe(shape, pose, query, outline, spacing, inside):
    sd, point, _, _ = boundary_probe(shape, pose, query)
    world_outline = np.array([pose.transform_point(p) for p in outline])
    sampled = float(np.min(np.hypot(*(world_outline - query).T)))
    # the nearest sample is at most half a spacing further than the boundary
    assert sampled - 0.5 * spacing - 1e-9 <= abs(sd) <= sampled + 1e-9
    assert math.isclose(math.hypot(*(point - query)), abs(sd), rel_tol=1e-9, abs_tol=1e-9)
    if abs(sd) > 1e-9:
        assert (sd < 0.0) == inside


@settings(derandomize=True, max_examples=150, deadline=None)
@given(star_polygons(), poses, st.floats(-90.0, 90.0), st.floats(-90.0, 90.0))
def test_boundary_probe_on_star_polygons(verts, pose, qy, qz):
    shape = ObjectShape("star", polygon=verts, f_max=1.0, m_max=10.0)
    local = np.array([qy, qz])
    outline, spacing = dense_outline(verts)
    query = pose.transform_point(local)
    check_probe(shape, pose, query, outline, spacing, inside_polygon(local, verts))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(5.0, 60.0), poses, st.floats(-90.0, 90.0), st.floats(-90.0, 90.0))
def test_boundary_probe_on_circles(radius, pose, qy, qz):
    shape = ObjectShape("disc", radius=radius, f_max=1.0, m_max=10.0)
    t = np.linspace(0.0, 2.0 * math.pi, SAMPLES_PER_OUTLINE, endpoint=False)
    outline = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    spacing = 2.0 * math.pi * radius / SAMPLES_PER_OUTLINE
    query = pose.transform_point([qy, qz])
    check_probe(shape, pose, query, outline, spacing, math.hypot(qy, qz) < radius)


@functools.lru_cache(maxsize=1)
def friction_variants() -> list:
    """Every catalog shape with its support limits scaled and its contact
    friction replaced; built once, since checking a 63-vertex outline for
    self-intersection takes milliseconds."""
    variants = []
    for base in builtin_shapes().values():
        for mu in (0.0, 0.25, 0.5, 1.0):
            for f_scale, m_scale in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
                variants.append(base.with_friction(
                    f_max=base.f_max * f_scale, m_max=base.m_max * m_scale, mu_contact=mu
                ))
    return variants


@st.composite
def substep_cases(draw):
    """A shape, its pose, the pusher before the substep and the substep's
    displacement. The displaced tip overlaps the outline by up to 1 mm at a
    boundary point seen from a random direction (an edge or a vertex), or
    stands off it by up to 1 mm; the drive is at most SUBSTEP_CAP_MM long in
    any direction, zero included."""
    shape = draw(st.sampled_from(friction_variants()))
    pose = draw(poses)
    approach = draw(st.floats(0.0, 2.0 * math.pi))
    # a draw of its own for overlaps just above the tolerance, which the
    # wide draw would rarely hit
    pen = draw(st.one_of(st.floats(-1.0, 1.0), st.floats(0.0, 3.0 * PENETRATION_TOL_MM)))
    step = draw(st.floats(0.0, SUBSTEP_CAP_MM))
    deviation = math.radians(draw(st.floats(-180.0, 180.0)))
    far = pose.position + 400.0 * np.array([math.cos(approach), math.sin(approach)])
    _, point, n_out, _ = boundary_probe(shape, pose, far)
    tip_new = point + (TIP_RADIUS_MM - pen) * n_out
    c, s = math.cos(deviation), math.sin(deviation)
    disp = step * np.array([-c * n_out[0] + s * n_out[1], -s * n_out[0] - c * n_out[1]])
    start = tip_new - disp
    return shape, WorldState(pose, PlanarPose(float(start[0]), float(start[1]), 0.0)), disp


@settings(derandomize=True, max_examples=200, deadline=None)
@given(substep_cases())
def test_resolve_substep_overlap_at_most_tolerance(case):
    shape, world, disp = case
    try:
        new_pose, contact = resolve_substep(world, shape, disp)
    except PhysicsFault:
        return
    tip_new = world.pusher_pose.position + disp
    sd, _, _, _ = boundary_probe(shape, new_pose, tip_new)
    assert TIP_RADIUS_MM - sd == contact.penetration
    if contact.mode is ContactMode.SEPARATED:
        assert contact.penetration <= 0.0
        assert new_pose == world.object_pose
    else:
        assert contact.penetration <= PENETRATION_TOL_MM


@pytest.mark.xfail(
    strict=True,
    reason="resolution can overshoot: the object is pushed clear of the tip "
    "but the contact keeps its pushing mode, with overlap <= 0",
)
# no shrinking: the first failing case is enough to show the defect
@settings(derandomize=True, max_examples=200, deadline=None, phases=[Phase.generate])
@given(substep_cases())
def test_resolve_substep_keeps_pushing_contacts_overlapping(case):
    shape, world, disp = case
    try:
        _, contact = resolve_substep(world, shape, disp)
    except PhysicsFault:
        return
    if contact.mode is not ContactMode.SEPARATED:
        assert contact.penetration > 0.0


predictions = st.one_of(
    st.just(PosePrediction(in_contact=False)),
    st.builds(
        PosePrediction,
        in_contact=st.just(True),
        z_depth=st.floats(*Z_RANGE_MM),
        alpha=st.floats(*ALPHA_RANGE_DEG),
        clamped=st.booleans(),
    ),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(poses, poses, st.lists(predictions, min_size=1, max_size=12))
def test_control_step_commands_stay_planar_and_bounded(pusher, target, readings):
    cfg = ControllerConfig()
    state = ControllerState()
    for pred in readings:
        # control_step reads its command back through PlanarPose.from_transform,
        # which raises if the SE(3) command left the plane
        decision = control_step(pred, pusher, target, state, cfg)
        if decision.status is not Status.CONTINUE:
            return
        assert abs(decision.v) <= 5.0
        assert isinstance(decision.command, PlanarPose)
        pusher = decision.command
