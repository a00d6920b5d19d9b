"""Property-based invariants of the geometry kernel, the physics and the
controller, checked on generated inputs with hypothesis.

Every test is derandomized, so a run is reproducible and a failure is seen
on every run, not only on an unlucky one.
"""

import copy
import dataclasses
import functools
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from tacpush import push_dynamics
from tacpush.exp_harness import (
    EXP_START_POSES,
    EXP_TARGET_POSE,
    place_random_orientation,
    run_trial,
)
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
    simulate_tap,
)
from tacpush.scenario import Scenario
from tacpush.scene import (
    _GRID_CELL_MM,
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    builtin_shapes,
    dir_heading,
    normalize_angle_deg,
)
from tacpush.tactile_sense import ALPHA_RANGE_DEG, Z_RANGE_MM, PosePrediction

from physics_oracle import to_work

SAMPLES_PER_OUTLINE = 4000

poses = st.builds(
    PlanarPose, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(-180.0, 180.0)
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.floats(1e-300, 1e300), st.booleans(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_heading_wrap_is_idempotent_and_survives_pickling(magnitude, negative, y, z):
    """Wrapping a wrapped heading changes no bit, so a PlanarPose, whose
    constructor wraps, pickles and unpickles to the same bits.

    normalize_angle_deg(x) is h = fl(r - 180), where r in (0, 360] is x + 180
    rounded and then reduced mod 360 (fmod is exact). By Sterbenz's lemma,
    a - b is exact for b / 2 <= a <= 2 b:
    - if r >= 90, h = r - 180 exactly, so h + 180 = r and wrapping h gives h;
    - if r < 90, h lies in [-180, -90], so h + 180 is exact and lies in
      [0, 90], and wrapping h gives fl((h + 180) - 180) = h. The one way out
      would be h + 180 = 0, which needs r below 2^-46 (half the spacing of
      the floats just below 180). A remainder that small is the exact sum
      x + 180 of an x in (-180, -128], a multiple of 2^-45; every larger sum
      reduces to a multiple of 2^-44.
    """
    x = -magnitude if negative else magnitude
    h = normalize_angle_deg(x)
    assert -180.0 < h <= 180.0
    assert normalize_angle_deg(h).hex() == h.hex()
    pose = PlanarPose(y, z, x)
    back = pickle.loads(pickle.dumps(pose))
    assert type(back) is PlanarPose
    assert [v.hex() for v in back] == [v.hex() for v in pose] == [y.hex(), z.hex(), h.hex()]


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
    world_outline = np.array([to_work(pose, p) for p in outline])
    sampled = float(np.min(np.hypot(*(world_outline - query).T)))
    # the nearest sample is at most half a spacing further than the boundary
    assert sampled - 0.5 * spacing - 1e-9 <= abs(sd) <= sampled + 1e-9
    assert math.isclose(math.hypot(*(np.asarray(point) - query)), abs(sd),
                        rel_tol=1e-9, abs_tol=1e-9)
    if abs(sd) > 1e-9:
        assert (sd < 0.0) == inside


@settings(derandomize=True, max_examples=150, deadline=None)
@given(star_polygons(), poses, st.floats(-90.0, 90.0), st.floats(-90.0, 90.0))
def test_boundary_probe_on_star_polygons(verts, pose, qy, qz):
    shape = ObjectShape("star", polygon=verts, f_max=1.0, m_max=10.0)
    local = np.array([qy, qz])
    outline, spacing = dense_outline(verts)
    query = to_work(pose, local)
    check_probe(shape, pose, query, outline, spacing, inside_polygon(local, verts))


CATALOG_POLYGONS = tuple(s for s in builtin_shapes().values() if s.radius is None)
NEAR_VERTEX_MM = 3.0


def reflex_vertices(shape) -> list:
    """The vertices where the CCW outline turns clockwise."""
    edges = np.roll(shape.polygon, -1, axis=0) - shape.polygon
    before = np.roll(edges, 1, axis=0)
    turn = before[:, 0] * edges[:, 1] - before[:, 1] * edges[:, 0]
    return [v for v, t in zip(shape.polygon, turn) if t < 0.0]


# mug's two handle joints and l_shape's inner corner
CATALOG_REFLEX = tuple((s, v) for s in CATALOG_POLYGONS for v in reflex_vertices(s))


@functools.lru_cache(maxsize=None)
def catalog_outline(name) -> tuple:
    return dense_outline(builtin_shapes()[name].polygon)


@st.composite
def near_vertex_queries(draw):
    """A catalog polygon (mug and l_shape are non-convex) and a query point
    in its frame within NEAR_VERTEX_MM of one of its vertices, where the
    inside/outside sign can come from a vertex rather than an edge. Half the
    draws go to a reflex vertex, the only kind with inside points nearest
    to it, which a draw over all 84 vertices would rarely hit."""
    if draw(st.booleans()):
        shape, vertex = draw(st.sampled_from(CATALOG_REFLEX))
    else:
        shape = draw(st.sampled_from(CATALOG_POLYGONS))
        vertex = shape.polygon[draw(st.integers(0, len(shape.polygon) - 1))]
    r = draw(st.floats(0.0, NEAR_VERTEX_MM))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return shape, vertex + r * np.array([math.cos(phi), math.sin(phi)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(near_vertex_queries(), poses)
def test_boundary_probe_near_catalog_vertices(case, pose):
    shape, local = case
    outline, spacing = catalog_outline(shape.name)
    query = to_work(pose, local)
    check_probe(shape, pose, query, outline, spacing, inside_polygon(local, shape.polygon))


def test_probe_sign_sweep_reaches_inside_at_a_vertex():
    # queries around every catalog vertex: the sign agrees with the
    # crossing-number test everywhere, and some queries are inside with a
    # (reflex) vertex as the nearest feature, the case the vertex
    # pseudonormal decides
    rng = np.random.default_rng(0)
    inside_at_vertex = 0
    for shape in CATALOG_POLYGONS:
        for vertex in shape.polygon:
            r = rng.uniform(0.0, NEAR_VERTEX_MM, size=20)
            phi = rng.uniform(0.0, 2.0 * math.pi, size=20)
            for local in vertex + r[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1):
                sd, _, _, feature = boundary_probe(shape, PlanarPose(), local)
                inside = inside_polygon(local, shape.polygon)
                if abs(sd) > 1e-9:
                    assert (sd < 0.0) == inside, (shape.name, local)
                inside_at_vertex += inside and feature[0] == "vertex"
    assert inside_at_vertex > 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(5.0, 60.0), poses, st.floats(-90.0, 90.0), st.floats(-90.0, 90.0))
def test_boundary_probe_on_circles(radius, pose, qy, qz):
    shape = ObjectShape("disc", radius=radius, f_max=1.0, m_max=10.0)
    t = np.linspace(0.0, 2.0 * math.pi, SAMPLES_PER_OUTLINE, endpoint=False)
    outline = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    spacing = 2.0 * math.pi * radius / SAMPLES_PER_OUTLINE
    query = to_work(pose, [qy, qz])
    check_probe(shape, pose, query, outline, spacing, math.hypot(qy, qz) < radius)


def nearest_edges(verts, pts) -> np.ndarray:
    """Per query point, the nearest edge over all edges by the probe's
    formula, the lowest index on ties."""
    e = np.roll(verts, -1, axis=0) - verts
    len2 = np.maximum(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1], 1e-30)
    qy, qz = pts[:, :1], pts[:, 1:]
    t = np.clip(((qy - verts[:, 0]) * e[:, 0] + (qz - verts[:, 1]) * e[:, 1]) / len2, 0.0, 1.0)
    ry = qy - (verts[:, 0] + t * e[:, 0])
    rz = qz - (verts[:, 1] + t * e[:, 1])
    return (ry * ry + rz * rz).argmin(axis=1)


def cell_candidates(shape, iy, iz) -> tuple:
    _, _, _, cells_z, cells = shape._edge_grid
    return cells[iy * cells_z + iz]


def all_edges_search(shape):
    """A copy of the shape without a grid, so that every query tries every edge."""
    bare = copy.copy(shape)
    object.__setattr__(bare, "_edge_grid", (*shape._edge_grid[:2], 0, 0, ()))
    return bare


@pytest.mark.parametrize("shape", CATALOG_POLYGONS, ids=lambda s: s.name)
def test_grid_lists_the_nearest_edge_at_every_cell_corner(shape):
    # a corner is as far from its cells' centres as a point of a cell gets,
    # so it is where a band narrower than the cell diagonal misses an edge;
    # each corner is checked against all four cells that share it
    y0, z0, cells_y, cells_z, _ = shape._edge_grid
    cy, cz = np.meshgrid(np.arange(cells_y + 1), np.arange(cells_z + 1), indexing="ij")
    corners = np.stack([y0 + cy.ravel() * _GRID_CELL_MM, z0 + cz.ravel() * _GRID_CELL_MM], axis=1)
    nearest = nearest_edges(shape.polygon, corners)
    for iy, iz, j in zip(cy.ravel().tolist(), cz.ravel().tolist(), nearest.tolist()):
        for ky in (iy - 1, iy):
            for kz in (iz - 1, iz):
                if 0 <= ky < cells_y and 0 <= kz < cells_z:
                    assert j in cell_candidates(shape, ky, kz), (shape.name, ky, kz)


GRID_SHAPES = st.one_of(
    st.sampled_from(CATALOG_POLYGONS),
    star_polygons().map(lambda v: ObjectShape("star", polygon=v, f_max=1.0, m_max=10.0)),
)


@st.composite
def grid_queries(draw):
    """A polygon, a grid cell of it and an object-frame query in that closed
    cell: at a corner, on a side or inside it. A quarter of the draws go
    outside the grid instead, with no cell."""
    shape = draw(GRID_SHAPES)
    y0, z0, cells_y, cells_z, _ = shape._edge_grid
    if draw(st.integers(0, 3)) == 0:
        ang = draw(st.floats(0.0, 2.0 * math.pi))
        r = math.hypot(cells_y, cells_z) * _GRID_CELL_MM + draw(st.floats(0.0, 100.0))
        return shape, None, np.array([y0 + r * math.cos(ang), z0 + r * math.sin(ang)])
    iy, iz = draw(st.integers(0, cells_y - 1)), draw(st.integers(0, cells_z - 1))
    kind = draw(st.sampled_from(("corner", "side", "inside")))
    fy = draw(st.sampled_from((0.0, 1.0)) if kind != "inside" else st.floats(0.0, 1.0))
    fz = draw(st.sampled_from((0.0, 1.0)) if kind == "corner" else st.floats(0.0, 1.0))
    if kind == "side" and draw(st.booleans()):
        fy, fz = fz, fy
    local = np.array([y0 + (iy + fy) * _GRID_CELL_MM, z0 + (iz + fz) * _GRID_CELL_MM])
    return shape, (iy, iz), local


@settings(derandomize=True, max_examples=400, deadline=None)
@given(grid_queries(), poses)
def test_grid_search_matches_an_all_edges_search(case, pose):
    shape, cell, local = case
    if cell is not None:
        nearest = int(nearest_edges(shape.polygon, local[None, :])[0])
        assert nearest in cell_candidates(shape, *cell)
    query = to_work(pose, local)
    sd, point, normal, feature = boundary_probe(shape, pose, query)
    sd_all, point_all, normal_all, feature_all = boundary_probe(all_edges_search(shape), pose, query)
    assert (sd, feature) == (sd_all, feature_all)
    assert np.array_equal(point, point_all) and np.array_equal(normal, normal_all)


@functools.lru_cache(maxsize=1)
def friction_variants() -> list:
    """Every catalog shape with its support limits scaled and its contact
    friction replaced; built once, since checking a 63-vertex outline for
    self-intersection takes milliseconds."""
    variants = []
    for base in builtin_shapes().values():
        for mu in (0.0, 0.25, 0.5, 1.0):
            for f_scale, m_scale in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
                variants.append(dataclasses.replace(
                    base, f_max=base.f_max * f_scale, m_max=base.m_max * m_scale, mu_contact=mu
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
    far = (pose.y + 400.0 * math.cos(approach), pose.z + 400.0 * math.sin(approach))
    _, point, n_out, _ = boundary_probe(shape, pose, far)
    point, n_out = np.asarray(point), np.asarray(n_out)
    tip_new = point + (TIP_RADIUS_MM - pen) * n_out
    c, s = math.cos(deviation), math.sin(deviation)
    disp = step * np.array([-c * n_out[0] + s * n_out[1], -s * n_out[0] - c * n_out[1]])
    return shape, pose, tip_new - disp, disp


@settings(derandomize=True, max_examples=200, deadline=None)
@given(substep_cases())
def test_resolve_substep_overlap_at_most_tolerance(case):
    shape, pose, tip, disp = case
    try:
        new_pose, contact = resolve_substep(shape, pose, tip, disp)
    except PhysicsFault:
        return
    tip_new = tip + disp
    sd, _, _, _ = boundary_probe(shape, new_pose, tip_new)
    assert TIP_RADIUS_MM - sd == contact.penetration
    if contact.mode is ContactMode.SEPARATED:
        assert contact.penetration <= 0.0
        assert new_pose == pose
    else:
        assert contact.penetration <= PENETRATION_TOL_MM


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="resolution can overshoot: the object is pushed clear of the tip "
    "but the contact keeps its pushing mode, with overlap <= 0",
)
# no shrinking: the first failing case is enough to show the defect
@settings(derandomize=True, max_examples=200, deadline=None, phases=[Phase.generate])
@given(substep_cases())
def test_resolve_substep_keeps_pushing_contacts_overlapping(case):
    shape, pose, tip, disp = case
    try:
        _, contact = resolve_substep(shape, pose, tip, disp)
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
        # control_step reads its command back into a PlanarPose, which raises
        # on a non-finite coordinate
        decision = control_step(pred, pusher, target, state, cfg)
        if decision.status is not Status.CONTINUE:
            return
        assert abs(decision.v) <= 5.0
        assert isinstance(decision.command, PlanarPose)
        pusher = decision.command


targets = st.builds(PlanarPose, st.floats(-400.0, 400.0), st.floats(-400.0, 400.0))


def control_steps(readings, pusher, target) -> list:
    """(pusher pose, decision) of each control_step over `readings` with the
    default config, each tap's command the next tick's pusher pose."""
    cfg, state = ControllerConfig(), ControllerState()
    ticks = []
    for pred in readings:
        decision = control_step(pred, pusher, target, state, cfg)
        ticks.append((pusher, decision))
        if decision.status is not Status.CONTINUE:
            break
        pusher = decision.command
    return ticks


def off_the_thresholds(ticks, target) -> bool:
    """No tick within 1e-6 of a branch of control_step: the termination and
    approach-zone radii, and the bearing's wrap at +-180 degrees."""
    cfg = ControllerConfig()
    for pusher, decision in ticks:
        dist = math.hypot(target.y - pusher.y, target.z - pusher.z)
        if abs(dist - cfg.termination_radius) <= 1e-6:
            return False
        if decision.r is not None and (abs(decision.r - cfg.approach_zone_radius) <= 1e-6
                                       or 180.0 - abs(decision.theta) <= 1e-6):
            return False
    return True


def moved_point(y, z, phi, ty, tz) -> tuple:
    """The point (y, z) turned by phi degrees about the origin, then shifted
    by (ty, tz)."""
    c, s = math.cos(math.radians(phi)), math.sin(math.radians(phi))
    return c * y - s * z + ty, s * y + c * z + tz


def moved(pose, phi, ty, tz) -> PlanarPose:
    """`pose` turned by phi degrees about the origin, then shifted by (ty, tz)."""
    return PlanarPose(*moved_point(pose.y, pose.z, phi, ty, tz), pose.alpha + phi)


def mirrored(pose) -> PlanarPose:
    """`pose` reflected in the z axis: y -> -y, every heading negated."""
    return PlanarPose(-pose.y, pose.z, -pose.alpha)


def assert_same_command(got, want, tol):
    assert abs(got.y - want.y) <= tol and abs(got.z - want.z) <= tol, (got, want)
    assert abs(normalize_angle_deg(got.alpha - want.alpha)) <= tol, (got, want)


# relative, as roundoff grows with the coordinates' magnitude; 3,000 random
# runs of 8 ticks stayed within 2.4e-15
SYMMETRY_RTOL = 1e-13


@settings(derandomize=True, max_examples=300, deadline=None)
@given(poses, targets, st.lists(predictions, min_size=1, max_size=8),
       st.floats(-180.0, 180.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_control_step_commutes_with_planar_rigid_motions(pusher, target, readings, phi, ty, tz):
    # the same readings from a moved pusher and target give the moved
    # command; the bearing, the range and v are those of the unmoved run, and
    # the error and the integral, which are in the sensor frame, are equal
    here = control_steps(readings, pusher, target)
    assume(off_the_thresholds(here, target))
    there = control_steps(readings, moved(pusher, phi, ty, tz), moved(target, phi, ty, tz))
    scale = 1.0 + max(map(abs, (pusher.y, pusher.z, target.y, target.z, ty, tz)))
    tol = SYMMETRY_RTOL * scale
    assert len(here) == len(there)
    for (_, a), (_, b) in zip(here, there):
        assert a.status is b.status
        if a.command is not None:
            assert_same_command(b.command, moved(a.command, phi, ty, tz), tol)
        assert (a.theta is None) == (b.theta is None)
        if a.theta is not None:
            assert abs(a.theta - b.theta) <= tol and abs(a.r - b.r) <= tol
        assert abs(a.v - b.v) <= tol
        assert (a.error, a.integral) == (b.error, b.integral)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(poses, targets, st.lists(predictions, min_size=1, max_size=8))
def test_control_step_commutes_with_the_mirror(pusher, target, readings):
    # y -> -y with every heading and each reading's alpha negated: with the
    # default theta_ref of 0 and symmetric clips, the command, the bearing,
    # v and the y and alpha channels of the error and the integral mirror
    here = control_steps(readings, pusher, target)
    assume(off_the_thresholds(here, target))
    flipped = [p._replace(alpha=-p.alpha) if p.in_contact else p for p in readings]
    there = control_steps(flipped, mirrored(pusher), mirrored(target))
    tol = SYMMETRY_RTOL * (1.0 + max(map(abs, (pusher.y, pusher.z, target.y, target.z))))

    def flip(channels):
        return None if channels is None else (-channels[0], channels[1], -channels[2])

    assert len(here) == len(there)
    for (_, a), (_, b) in zip(here, there):
        assert a.status is b.status
        if a.command is not None:
            assert_same_command(b.command, mirrored(a.command), tol)
        assert (a.theta is None) == (b.theta is None)
        if a.theta is not None:
            assert abs(a.theta + b.theta) <= tol and abs(a.r - b.r) <= tol
        assert abs(a.v + b.v) <= tol
        for got, want in ((b.error, flip(a.error)), (b.integral, flip(a.integral))):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.abs(np.subtract(got, want)).max() <= tol, (got, want)


def mirrored_shape(shape) -> ObjectShape:
    """`shape` reflected in its z axis: the outline, with its vertex order
    reversed so that it stays counter-clockwise, and the CoF."""
    polygon = None if shape.polygon is None else shape.polygon[::-1] * (-1.0, 1.0)
    cof = (-shape.cof_offset[0], shape.cof_offset[1])
    return dataclasses.replace(shape, polygon=polygon, cof_offset=cof)


MIRRORED_MODE = {
    ContactMode.SEPARATED: ContactMode.SEPARATED,
    ContactMode.STICKING: ContactMode.STICKING,
    ContactMode.SLIDING_LEFT: ContactMode.SLIDING_RIGHT,
    ContactMode.SLIDING_RIGHT: ContactMode.SLIDING_LEFT,
}


def assert_same_contact(got, want, mode, tol):
    """ContactState `got` has `want`'s overlap to tol, and the mode `mode`."""
    assert abs(got.penetration - want.penetration) <= tol, (got, want)
    assert got.mode is mode, (got, want)


# A substep moved rigidly or mirrored moves the object to the moved or
# mirrored pose. 3,000 random substeps on the catalog shapes stayed within
# 6.8e-15 of the coordinates' magnitude, with no mode change. A substep whose
# overlap lies within the bound of 0 or of the tolerance sits on a threshold
# that rounding may cross either way, so it is left out.

def off_the_overlap_thresholds(shape, pose, tip, disp, tol) -> bool:
    pen = TIP_RADIUS_MM - boundary_probe(shape, pose, (tip[0] + disp[0], tip[1] + disp[1]))[0]
    return abs(pen) > tol and abs(pen - PENETRATION_TOL_MM) > tol


@settings(derandomize=True, max_examples=200, deadline=None)
@given(substep_cases(), st.floats(-180.0, 180.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_resolve_substep_commutes_with_planar_rigid_motions(case, phi, ty, tz):
    shape, pose, tip, disp = case
    tol = SYMMETRY_RTOL * (1.0 + max(map(abs, (pose.y, pose.z, *tip, ty, tz))))
    assume(off_the_overlap_thresholds(shape, pose, tip, disp, tol))
    try:
        here, contact = resolve_substep(shape, pose, tip, disp)
    except PhysicsFault:
        assume(False)
    there, moved_contact = resolve_substep(shape, moved(pose, phi, ty, tz),
                                           moved_point(*tip, phi, ty, tz),
                                           moved_point(*disp, phi, 0.0, 0.0))
    assert_same_command(there, moved(here, phi, ty, tz), tol)
    assert_same_contact(moved_contact, contact, contact.mode, tol)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(substep_cases())
def test_resolve_substep_commutes_with_the_mirror(case):
    # y -> -y with the outline and the CoF reflected: sliding left and
    # right swap
    shape, pose, tip, disp = case
    tol = SYMMETRY_RTOL * (1.0 + max(map(abs, (pose.y, pose.z, *tip))))
    assume(off_the_overlap_thresholds(shape, pose, tip, disp, tol))
    try:
        here, contact = resolve_substep(shape, pose, tip, disp)
    except PhysicsFault:
        assume(False)
    there, mirrored_contact = resolve_substep(mirrored_shape(shape), mirrored(pose),
                                              (-tip[0], tip[1]), (-disp[0], disp[1]))
    assert_same_command(there, mirrored(here), tol)
    assert_same_contact(mirrored_contact, contact, MIRRORED_MODE[contact.mode], tol)


@st.composite
def tap_cases(draw):
    """A catalog shape at a pose, and the default tap commanded from 1 mm
    inside to 8 mm outside the outline, at a boundary point seen from a
    random direction, heading within 60 degrees of the inward normal; the
    pusher starts within 5 mm and 20 degrees of the command."""
    shape = builtin_shapes()[draw(st.sampled_from(sorted(builtin_shapes())))]
    pose = draw(poses)
    approach = draw(st.floats(0.0, 2.0 * math.pi))
    far = (pose.y + 400.0 * math.cos(approach), pose.z + 400.0 * math.sin(approach))
    _, (qy, qz), (ny, nz), _ = boundary_probe(shape, pose, far)
    reach = TIP_RADIUS_MM + draw(st.floats(-1.0, 8.0))
    cmd = PlanarPose(qy + reach * ny, qz + reach * nz,
                     dir_heading((-ny, -nz)) + draw(st.floats(-60.0, 60.0)))
    start = PlanarPose(cmd.y + draw(st.floats(-5.0, 5.0)), cmd.z + draw(st.floats(-5.0, 5.0)),
                       cmd.alpha + draw(st.floats(-20.0, 20.0)))
    return shape, WorldState(pose, start), cmd


def assert_same_tap(got, want, transform, mode, tol):
    """The tap `got` ends at `want`'s poses under `transform`, senses at its
    transformed heading and reports its overlap, with the mode `mode`."""
    (world, heading, contact), (want_world, want_heading, want_contact) = got, want
    assert_same_command(world.object_pose, transform(want_world.object_pose), tol)
    assert_same_command(world.pusher_pose, transform(want_world.pusher_pose), tol)
    want_heading = transform(PlanarPose(0.0, 0.0, want_heading)).alpha
    assert abs(normalize_angle_deg(heading - want_heading)) <= tol
    assert_same_contact(contact, want_contact, mode, tol)


# the substep count of a leg, ceil(dist / substep), flips with dist's last
# bit, and the default 10 mm advance and 5 mm retract span a whole number
# of 0.5 mm substeps
TAP_SYMMETRY_XFAIL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a leg's substep count ceil(dist / substep) turns on dist's last bit (FOUND)",
)


@TAP_SYMMETRY_XFAIL
# no shrinking: the first failing case is enough to show the defect
@settings(derandomize=True, max_examples=300, deadline=None, phases=[Phase.generate])
@given(tap_cases(), st.floats(-180.0, 180.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_simulate_tap_commutes_with_planar_rigid_motions(case, phi, ty, tz):
    shape, world, cmd = case
    try:
        here = simulate_tap(world, shape, cmd)
    except PhysicsFault:
        assume(False)
    pose, start = world.object_pose, world.pusher_pose
    there = simulate_tap(WorldState(moved(pose, phi, ty, tz), moved(start, phi, ty, tz)),
                         shape, moved(cmd, phi, ty, tz))
    tol = SYMMETRY_RTOL * (1.0 + max(map(abs, (pose.y, pose.z, start.y, start.z, ty, tz))))
    assert_same_tap(there, here, lambda p: moved(p, phi, ty, tz), here[2].mode, tol)


@TAP_SYMMETRY_XFAIL
@settings(derandomize=True, max_examples=300, deadline=None, phases=[Phase.generate])
@given(tap_cases())
def test_simulate_tap_commutes_with_the_mirror(case):
    # PlanarPose wraps alpha and -alpha with different roundings, so the
    # mirrored advance can differ in its length's last bit
    shape, world, cmd = case
    try:
        here = simulate_tap(world, shape, cmd)
    except PhysicsFault:
        assume(False)
    pose, start = world.object_pose, world.pusher_pose
    there = simulate_tap(WorldState(mirrored(pose), mirrored(start)), mirrored_shape(shape),
                         mirrored(cmd))
    tol = SYMMETRY_RTOL * (1.0 + max(map(abs, (pose.y, pose.z, start.y, start.z))))
    assert_same_tap(there, here, mirrored, MIRRORED_MODE[here[2].mode], tol)


def checked_resolve_substep(shape, object_pose, tip, pusher_disp):
    """resolve_substep, with the invariants of every substep asserted."""
    pose, contact = resolve_substep(shape, object_pose, tip, pusher_disp)
    assert all(map(math.isfinite, (pose.y, pose.z, pose.alpha))), pose
    if contact.mode is ContactMode.SEPARATED:
        assert pose == object_pose
    else:
        assert contact.penetration <= PENETRATION_TOL_MM
    return pose, contact


# a whole trial per example: the budget keeps the test to a few seconds
@settings(derandomize=True, max_examples=45, deadline=None)
@given(star_polygons(), st.integers(0, len(EXP_START_POSES) - 1), st.floats(0.0, 360.0))
def test_closed_loop_trials_on_star_polygons(verts, start_index, heading):
    shape = ObjectShape("star", polygon=verts)
    start = EXP_START_POSES[start_index]
    scenario = Scenario(
        name="star",
        object=shape,
        object_start_pose=place_random_orientation(shape, start, heading),
        pusher_start_pose=start,
        target_pose=EXP_TARGET_POSE,
        max_taps=150,
    )
    # simulate_tap calls resolve_substep through push_dynamics' binding; a
    # failed check inside the trial ends it with outcome "error"
    with mock.patch.object(push_dynamics, "resolve_substep", checked_resolve_substep):
        record = run_trial(scenario)
    assert record.outcome not in ("error", "physics_fault"), record.meta
    # the per-tap invariants that test_acceptance checks on the grids; the
    # outcome is not asserted, since a non-convex outline can stall the push
    cfg = scenario.controller
    for tap in record.taps:
        assert abs(tap.v_mm) <= 5.0
        if tap.r_mm is not None and tap.r_mm <= cfg.approach_zone_radius:
            assert tap.v_mm == 0.0
        integral = np.asarray(tap[-6:])  # the int_* channels
        assert np.all(np.abs(integral[:3]) <= 5.0 + 1e-12)
        assert np.all(np.abs(integral[3:]) <= 25.0 + 1e-12)
