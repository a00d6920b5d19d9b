import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacpush import exp_harness, push_dynamics
from tacpush.pose_math import normalize_angle_deg
from tacpush.push_dynamics import (
    ContactMode,
    PENETRATION_TOL_MM,
    SUBSTEP_CAP_MM,
    contact_at,
    resolve_substep,
    simulate_tap,
)
from tacpush.scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    builtin_shapes,
    dir_heading,
    heading_dir,
)
from tacpush.tactile_sense import sense_contact

from physics_oracle import (
    brute_force_push,
    contact_matrix,
    lever,
    limit_surface,
    motion_cone_margin_deg,
    random_contact_configs,
    rot,
    to_work,
    voting_theorem_vote,
)
import test_physics_golden as substep_golden
from test_probe_golden import load_golden


def perp2(v):
    return np.array([-v[1], v[0]])


def resolved_twist(wrench, shape: ObjectShape) -> np.ndarray:
    """The unit twist (vy, vz, omega) of resolve_substep's resolution step
    for a CoF wrench (fy, fz, m) on `shape`'s limit surface.

    A square with the shape's f_max and m_max, its CoF at the origin, is
    turned so that its bottom edge's inward normal lies along f. The tip
    touches the point of that edge whose moment p . f is m, overlapping by
    1.5 times the tolerance, and drives along M f (the oracle's M), inside
    the motion cone, so that the contact sticks with force f and one step
    resolves the overlap. The step's displacement of the CoF and its turn
    are the twist.
    """
    f = np.asarray(wrench[:2], dtype=float)
    n_in = f / np.linalg.norm(f)
    x = float(wrench[2]) / float(np.linalg.norm(f))
    h = 2.0 * abs(x) + 30.0
    sq = ObjectShape("sq", polygon=[[-h, -h], [h, -h], [h, h], [-h, h]],
                     f_max=shape.f_max, m_max=shape.m_max, mu_contact=0.5)
    pose = PlanarPose(0.0, 0.0, dir_heading(n_in))
    point = np.asarray(to_work(pose, (x, -h)))
    drive = contact_matrix(*limit_surface(sq), lever(sq, pose, point)[1]) @ f
    disp = 0.01 * drive / np.linalg.norm(drive)
    tip = point - (TIP_RADIUS_MM - 1.5 * PENETRATION_TOL_MM) * n_in - disp
    moved, contact = resolve_substep(sq, pose, tip, disp)
    assert contact.mode is ContactMode.STICKING
    t = np.array((moved.y, moved.z, math.radians(normalize_angle_deg(moved.alpha - pose.alpha))))
    return t / np.linalg.norm(t)


def make_world(tip_center, object_pose):
    return WorldState(
        object_pose, PlanarPose(float(tip_center[0]), float(tip_center[1]), 0.0)
    )


def square(side=60.0, mu=0.5):
    h = side / 2
    return ObjectShape(
        "sq", polygon=[[-h, -h], [h, -h], [h, h], [-h, h]],
        f_max=1.0, m_max=14.0, mu_contact=mu,
    )


def record_substeps(monkeypatch) -> list:
    """Record every resolve_substep call of simulate_tap as (tip, disp,
    object pose after it, contact)."""
    calls = []
    real = push_dynamics.resolve_substep

    def recording(shape_, object_pose, tip, disp):
        out = real(shape_, object_pose, tip, disp)
        calls.append((np.array(tip, dtype=float), np.array(disp, dtype=float), *out))
        return out

    monkeypatch.setattr(push_dynamics, "resolve_substep", recording)
    return calls


def replay_tap(shape, world, cmd, tap_forward, tap_back, calls) -> list:
    """Replay a tap's substep positions leg by leg, match each recorded call
    to its substep, and check that every skipped substep is separated and
    that the advance runs its last substep. Returns (n, substeps run) per leg;
    the advance has at least one substep, even of length 0, and a relocation
    or retract that neither moves nor turns has none, (0, [])."""
    axis = np.array(heading_dir(cmd.alpha))
    start = np.array([cmd.y, cmd.z])
    targets = [start, start + tap_forward * axis, start + (tap_forward - tap_back) * axis]
    turns = [normalize_angle_deg(cmd.alpha - world.pusher_pose.alpha), 0.0, 0.0]
    pos = np.array([world.pusher_pose.y, world.pusher_pose.z])
    obj, k, legs = world.object_pose, 0, []
    for leg, target in enumerate(targets):
        delta = target - pos
        if leg != 1 and math.hypot(*delta) < 1e-12 and abs(turns[leg]) < 1e-12:
            legs.append((0, []))
            continue
        n = max(1, math.ceil(math.hypot(*delta) / SUBSTEP_CAP_MM))
        probed = []
        for i in range(1, n + 1):
            p_prev, p_i = pos + delta * ((i - 1) / n), pos + delta * (i / n)
            if k < len(calls) and np.array_equal(calls[k][0], p_prev):
                assert np.array_equal(calls[k][1], p_i - p_prev)
                obj = calls[k][2]
                probed.append(i)
                k += 1
            else:
                assert contact_at(shape, obj, p_i).penetration <= 0.0, (leg, i, n)
        if leg == 1:
            assert probed[-1] == n
        legs.append((n, probed))
        pos = pos + delta * (n / n)
    assert k == len(calls)
    return legs


class TestLimitSurfaceTwist:
    def test_pure_force_gives_pure_translation(self):
        # a push along the lever arm, through the CoF, has no moment
        start = (-30.0 - TIP_RADIUS_MM + 0.1 - 0.4, 0.0)
        pose, contact = resolve_substep(square(), PlanarPose(), start, (0.4, 0.0))
        assert contact.mode is ContactMode.STICKING
        assert pose.alpha == 0.0
        assert pose.z == 0.0
        assert pose.y > 0.0

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(1)
        shape = square()

        def ellipsoid(w):
            return (
                (w[0] / shape.f_max) ** 2
                + (w[1] / shape.f_max) ** 2
                + (w[2] / shape.m_max) ** 2
            )

        step = 1e-6
        for _ in range(100):
            w = rng.uniform(-2, 2, size=3)
            if np.linalg.norm(w) < 0.1:
                continue
            grad = np.array(
                [
                    (ellipsoid(w + step * e) - ellipsoid(w - step * e)) / (2 * step)
                    for e in np.eye(3)
                ]
            )
            grad /= np.linalg.norm(grad)
            twist = resolved_twist(w, shape)
            assert np.linalg.norm(twist - grad) / np.linalg.norm(grad) < 1e-4


class TestMotionCone:
    """_resolve's motion cone against the oracle's: the velocity images,
    under the oracle's M, of the friction-cone edge forces. A drive turned
    just inside an edge sticks, and one turned just outside slides to that
    edge's side."""

    @pytest.mark.parametrize("mu", [0.1, 0.3, 1.0])
    def test_edges_match_the_oracles(self, mu):
        shape = square(mu=mu)
        pose = PlanarPose(5.0, -3.0, 20.0)
        point = to_work(pose, [12.0, -30.0])
        n_in = np.asarray(heading_dir(pose.alpha))
        m = contact_matrix(*limit_surface(shape), lever(shape, pose, point)[1])
        phi = math.atan(mu)
        for sign, outside in ((1.0, ContactMode.SLIDING_LEFT), (-1.0, ContactMode.SLIDING_RIGHT)):
            edge = m @ rot(n_in, sign * phi)
            for turn, mode in ((-1e-6, ContactMode.STICKING), (1e-6, outside)):
                v = rot(edge, sign * turn).tolist()
                got = push_dynamics._resolve(shape, pose, *point, *n_in.tolist(), *v)[6]
                assert got is mode, (sign, turn)

    def test_centred_push_is_symmetric(self):
        # for a push line through the CoF the cone mirrors across the normal:
        # mirrored drives give mirrored forces and modes
        shape = square(mu=0.4)
        mirror = {ContactMode.STICKING: ContactMode.STICKING,
                  ContactMode.SLIDING_LEFT: ContactMode.SLIDING_RIGHT}
        for vy, mode in ((0.5, ContactMode.STICKING), (3.0, ContactMode.SLIDING_LEFT)):
            left, right = (push_dynamics._resolve(shape, PlanarPose(), 0.0, -30.0, 0.0, 1.0,
                                                  y, 1.0)[4:] for y in (-vy, vy))
            assert left[2] is mode and right[2] is mirror[mode]
            assert (left[0], left[1]) == (-right[0], right[1])


class TestResolveBranches:
    """_resolve's branches that no push of the goldens reaches, called on
    blue_square at the origin (its CoF) with the contact point q = (-10, 0),
    so the lever p = (0, -10), and the inward normal n = (0, 1)."""

    def mode(self, v, mu=0.5):
        shape = dataclasses.replace(builtin_shapes()["blue_square"], mu_contact=mu)
        return push_dynamics._resolve(shape, PlanarPose(), -10.0, 0.0, 0.0, 1.0, *v)[6]

    def test_reflex_corner_slides_towards_the_nearer_edge(self):
        # a drive against n lies beyond both motion-cone edges
        assert self.mode((0.3, -1.0)) is ContactMode.SLIDING_RIGHT
        assert self.mode((-0.3, -1.0)) is ContactMode.SLIDING_LEFT

    def test_frictionless_contact_sticks_only_along_its_motion_ray(self):
        # with mu = 0 the motion cone is the one ray M n = (0, a + 100 b)
        assert self.mode((0.0, 1.0), mu=0.0) is ContactMode.STICKING
        assert self.mode((1e-6, 1.0), mu=0.0) is ContactMode.SLIDING_RIGHT
        assert self.mode((-1e-6, 1.0), mu=0.0) is ContactMode.SLIDING_LEFT


def test_sticking_force_solves_m_f_equals_v_on_the_oracle_configurations():
    # _resolve's sticking force is f = M^-1 v: M f = v to a relative 1e-12
    # with the oracle's M (its condition number is at most 15 here), at the
    # oracle's contacts and for its drives
    sticking = 0
    for cfg in random_contact_configs(1_000, seed=1):
        point, n_in, v = (x.tolist() for x in (cfg.contact_point, cfg.n_in, cfg.v_p))
        *_, fy, fz, mode = push_dynamics._resolve(cfg.shape, cfg.object_pose, *point, *n_in, *v)
        if mode is not ContactMode.STICKING:
            continue
        sticking += 1
        m = contact_matrix(*limit_surface(cfg.shape), lever(cfg.shape, cfg.object_pose, point)[1])
        back = (m @ (fy, fz)).tolist()
        assert math.dist(back, v) <= 1e-12 * math.hypot(*v), (cfg, back)
    assert sticking > 400


class TestStickingCentreOfRotation:
    """A small sticking substep turns the object about the centre of rotation
    that the ellipsoid limit surface gives in closed form (Lynch & Mason
    1996), to first order in the step.

    With c = m_max / f_max, a contact at r from the CoF and a sticking pusher
    velocity v, the CoF moves with
        v_o = ((c^2 + ry^2) vy + ry rz vz, ry rz vy + (c^2 + rz^2) vz) / (c^2 + |r|^2)
    and the object spins at omega = (r x v_o) / c^2, so the centre of
    rotation is cof + (-v_oz, v_oy) / omega. The substep probes the contact
    at the displaced tip, a step away, hence the first order.
    """

    SHAPE = builtin_shapes()["blue_square"]  # CoF at the origin
    POSE = PlanarPose(4.0, -7.0, 35.0)

    def closed_form_cor(self, r, v):
        c2 = (self.SHAPE.m_max / self.SHAPE.f_max) ** 2
        (ry, rz), (vy, vz) = r, v
        d = c2 + ry * ry + rz * rz
        oy = ((c2 + ry * ry) * vy + ry * rz * vz) / d
        oz = (ry * rz * vy + (c2 + rz * rz) * vz) / d
        omega = (ry * oz - rz * oy) / c2
        return self.POSE.y - oz / omega, self.POSE.z + oy / omega

    def pole(self, new: PlanarPose):
        """The fixed point of the rigid motion from POSE to `new`."""
        old, turn = self.POSE, math.radians(new.alpha - self.POSE.alpha)
        c, s = math.cos(turn), math.sin(turn)
        # new = R old + t, solved for the point that (I - R) maps to t
        ty = new.y - (c * old.y - s * old.z)
        tz = new.z - (s * old.y + c * old.z)
        det = (1.0 - c) ** 2 + s * s
        return ((1.0 - c) * ty - s * tz) / det, (s * ty + (1.0 - c) * tz) / det

    @pytest.mark.parametrize("offset", [-12.0, 6.0])
    @pytest.mark.parametrize("drive_deg", [-15.0, 0.0, 10.0])
    def test_pose_change_turns_about_the_closed_form_centre(self, offset, drive_deg):
        # the tip overlaps the bottom edge by the residual that resolution
        # leaves, so the pushing substep moves the contact by about `step`
        pose, res = self.POSE, PENETRATION_TOL_MM / 2
        point = to_work(pose, [offset, -30.0])
        tip = to_work(pose, [offset, -30.0 - TIP_RADIUS_MM + res])
        # the drive, drive_deg off the inward normal (the object's +z axis)
        vy, vz = heading_dir(pose.alpha + drive_deg)
        cor = self.closed_form_cor((point[0] - pose.y, point[1] - pose.z), (vy, vz))
        reach = math.dist(cor, (pose.y, pose.z))
        errors = []
        for step in (0.04, 0.02):
            moved, contact = resolve_substep(self.SHAPE, pose, tip, (step * vy, step * vz))
            assert contact.mode is ContactMode.STICKING
            errors.append(math.dist(self.pole(moved), cor))
        # first order: halving the step halves the error
        assert errors[0] <= 0.01 * reach
        assert errors[1] <= 0.6 * errors[0]


class TestResolveSubstep:
    def test_no_overlap_no_motion(self):
        shape = square()
        start = PlanarPose()
        pose, contact = resolve_substep(shape, start, [0.0, -60.0], [0.1, 0.1])
        assert pose == start
        assert contact.mode is ContactMode.SEPARATED
        assert contact.penetration < 0

    def test_substep_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            resolve_substep(square(), PlanarPose(), [0.0, -60.0], [0.6, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN displacement makes no `norm > cap` comparison true, so the
        # cap check must be written to fail on it; both arguments are named
        for i in range(2):
            disp = [0.1, 0.1]
            disp[i] = bad
            with pytest.raises(ValueError, match="pusher_disp .* not finite"):
                resolve_substep(square(), PlanarPose(), [0.0, -60.0], disp)
            tip = [0.0, -60.0]
            tip[i] = bad
            with pytest.raises(ValueError, match="tip must be finite"):
                resolve_substep(square(), PlanarPose(), tip, [0.1, 0.1])

    def test_centred_push_pure_translation(self):
        shape = square()
        tip = np.array([0.0, -49.9])  # 0.1 mm overlap, dead centre on the edge
        pose = PlanarPose()
        for _ in range(40):
            pose, _ = resolve_substep(shape, pose, tip, [0.0, 0.4])
            tip = tip + [0.0, 0.4]
        assert abs(pose.alpha) < math.degrees(1e-9)
        assert pose.y == pytest.approx(0.0, abs=1e-9)
        assert pose.z > 0.0

    def test_penetration_resolved_within_tolerance(self):
        shape = square()
        rng = np.random.default_rng(3)
        for _ in range(50):
            off = float(rng.uniform(-25, 25))
            drive = np.array([float(rng.uniform(-0.2, 0.2)), 0.4])
            pose, contact = resolve_substep(shape, PlanarPose(), [off, -49.8], drive)
            assert 0.0 < contact.penetration <= PENETRATION_TOL_MM

    def test_unilateral_retreat_never_moves_object(self):
        shape = square()
        start = PlanarPose()
        # grazing overlap
        pose, contact = resolve_substep(shape, start, [0.0, -50.005], [0.0, -0.4])
        assert pose == start

    def test_deterministic(self):
        shape = square()
        start = PlanarPose(0.0, 0.0, 10.0)
        a = resolve_substep(shape, start, [7.0, -49.85], [0.1, 0.45])
        b = resolve_substep(shape, start, [7.0, -49.85], [0.1, 0.45])
        assert a[0] == b[0]
        assert np.array_equal(a[1].point, b[1].point)
        assert a[1].penetration == b[1].penetration

    def test_rotation_sign_matches_voting_theorem(self):
        mismatches = 0
        used = 0
        for cfg in random_contact_configs(150, seed=4):
            pose, contact = resolve_substep(cfg.shape, cfg.object_pose, cfg.tip, cfg.disp)
            if contact.mode is ContactMode.SEPARATED:
                continue
            dalpha = math.radians(normalize_angle_deg(pose.alpha - cfg.object_pose.alpha))
            if abs(dalpha) < 1e-10:
                continue
            r = cfg.contact_point - to_work(cfg.object_pose, cfg.shape.cof_offset)
            vote = voting_theorem_vote(r, cfg.n_in, cfg.shape.mu_contact, cfg.v_p)
            if vote == 0:
                continue
            used += 1
            if vote != int(np.sign(dalpha)):
                mismatches += 1
        assert used > 80
        assert mismatches == 0

    def test_matches_brute_force_oracle(self):
        # trimmed version of the acceptance check
        checked = 0
        for cfg in random_contact_configs(120, seed=5):
            _, point, n_out, _ = boundary_probe(
                cfg.shape, cfg.object_pose, cfg.tip + cfg.disp
            )
            n_in = -np.asarray(n_out)
            cof, p = lever(cfg.shape, cfg.object_pose, point)
            a, b = limit_surface(cfg.shape)
            if motion_cone_margin_deg(cfg.v_p, n_in, cfg.shape.mu_contact, a, b, p) < 0.5:
                continue
            oracle_twist, oracle_mode = brute_force_push(
                cfg.v_p, n_in, cfg.shape.mu_contact, a, b, p, n_candidates=2_000
            )
            if oracle_twist is None:
                continue
            pose, contact = resolve_substep(cfg.shape, cfg.object_pose, cfg.tip, cfg.disp)
            if contact.mode is ContactMode.SEPARATED:
                continue
            moved = np.array(
                [
                    *(np.asarray(to_work(pose, cfg.shape.cof_offset)) - cof),
                    math.radians(normalize_angle_deg(pose.alpha - cfg.object_pose.alpha)),
                ]
            )
            if np.linalg.norm(moved) < 1e-9:
                continue
            moved /= np.linalg.norm(moved)
            checked += 1
            assert float(moved @ oracle_twist) > 0.999
            assert contact.mode.value == oracle_mode
        assert checked > 60

    def test_scale_invariance(self):
        shape = square()
        world = make_world([8.0, -49.9], PlanarPose())
        cmd = PlanarPose(8.0, -49.9, 0.0)
        w1, _, _ = simulate_tap(world, shape, cmd, substep=0.5)
        w2, _, _ = simulate_tap(world, shape, cmd, substep=0.25)
        assert w1.object_pose.y == pytest.approx(w2.object_pose.y, abs=0.02)
        assert w1.object_pose.z == pytest.approx(w2.object_pose.z, abs=0.02)
        assert w1.object_pose.alpha == pytest.approx(w2.object_pose.alpha, abs=0.02)


def is_float_pair(v) -> bool:
    # type() and not isinstance(): numpy's float64 subclasses float
    return type(v) is tuple and len(v) == 2 and all(type(x) is float for x in v)


class TestKernelReturnsPythonFloats:
    """The substep loop runs on Python floats and float tuples, even for
    ndarray inputs, so that no numpy call comes back into it unnoticed."""

    @pytest.mark.parametrize("name", ["blue_square", "mug", "circle"])
    def test_boundary_probe_and_contact_at(self, name):
        shape = builtin_shapes()[name]
        pose = PlanarPose(3.0, -4.0, 25.0)
        for tip in (np.array([0.0, -60.0]), np.array([1.0, 2.0]), [1.0, 2.0], [0.5, -30.0]):
            sd, point, normal, _ = boundary_probe(shape, pose, tip)
            assert type(sd) is float
            assert is_float_pair(point) and is_float_pair(normal)
            c = contact_at(shape, pose, tip)
            assert is_float_pair(c.point) and is_float_pair(c.normal)
            assert type(c.penetration) is float

    @pytest.mark.parametrize("tip, disp", [
        ([0.0, -60.0], [0.1, 0.1]),  # separated
        ([7.0, -49.85], [0.1, 0.45]),  # pushing: the resolution loop runs
        ([0.0, -50.005], [0.0, -0.4]),  # grazing: classified without moving
    ])
    def test_resolve_substep_contact_state(self, tip, disp):
        for args in ((tip, disp), (np.array(tip), np.array(disp))):
            _, contact = resolve_substep(square(), PlanarPose(0.0, 0.0, 10.0), *args)
            assert is_float_pair(contact.point) and is_float_pair(contact.normal)

    @pytest.mark.parametrize("drive", [(0.1, 0.4), (3.0, 1.0), (-3.0, 1.0), (0.3, -1.0)],
                             ids=["sticking", "right", "left", "reflex"])
    def test_resolve(self, drive):
        out = push_dynamics._resolve(square(), PlanarPose(5.0, -3.0, 20.0), 12.0, -30.0,
                                     0.0, 1.0, *drive)
        assert {type(x) for x in out[:6]} == {float}


def test_contact_at_reads_the_probes_point_and_negated_normal_exactly():
    # all 1,020 queries of the probe golden; repr tells signed zeros apart
    catalog = builtin_shapes()
    for case in load_golden():
        shape = catalog[case["shape"]]
        pose = PlanarPose(*case["pose"])
        _, point, (ny, nz), _ = boundary_probe(shape, pose, case["query"])
        c = contact_at(shape, pose, case["query"])
        assert repr(c.point) == repr(point), case
        assert repr(c.normal) == repr((-ny, -nz)), case


def test_contact_matrix_cof_is_the_posed_cof_offset_exactly():
    # the kernel forms the CoF from the heading's cos and sin, as
    # physics_oracle.to_work does; the 1,020 probe-golden poses
    shape = dataclasses.replace(square(), cof_offset=(3.0, -2.0))
    for case in load_golden():
        pose = PlanarPose(*case["pose"])
        cof = push_dynamics._resolve(shape, pose, *case["query"], 0.0, 1.0, 0.0, 1.0)[:2]
        assert repr(cof) == repr(to_work(pose, shape.cof_offset)), case


class TestResolutionLoop:
    """The overlap-resolution loop of resolve_substep: its step count, its
    fault and its probes."""

    # a centred push that one step resolves, and an off-centre one that
    # takes three steps
    ONE_STEP = ([0.0, -50.2], [0.0, 0.3])
    THREE_STEPS = ([29.0, -45.0], [0.3, 0.3])

    def recorded_probes(self, monkeypatch):
        """The poses resolve_substep probes at: the given pose, then each
        pose a resolution step advances the object to. The wrapper replaces
        push_dynamics' binding, as perfbench's tracer does (scene's own
        binding also serves the shape's constructor)."""
        probed, probe = [], push_dynamics.boundary_probe

        def counted(shape, pose, tip):
            probed.append(pose)
            return probe(shape, pose, tip)

        monkeypatch.setattr(push_dynamics, "boundary_probe", counted)
        return probed

    def recorded_resolves(self, monkeypatch):
        """(pose, mode) of every _resolve call."""
        calls, resolve = [], push_dynamics._resolve

        def recording(shape, pose, *args):
            out = resolve(shape, pose, *args)
            calls.append((pose, out[6]))
            return out

        monkeypatch.setattr(push_dynamics, "_resolve", recording)
        return calls

    def test_converged_last_step_is_no_fault(self, monkeypatch):
        # the overlap after the last allowed step is within tolerance
        monkeypatch.setattr(push_dynamics, "MAX_RESOLVE_ITERS", 1)
        probed = self.recorded_probes(monkeypatch)
        pose, contact = resolve_substep(builtin_shapes()["blue_square"], PlanarPose(),
                                        *self.ONE_STEP)
        assert len(probed) == 2 and pose is probed[1]
        assert contact.mode is ContactMode.STICKING
        assert 0.0 < contact.penetration <= PENETRATION_TOL_MM

    def test_non_convergence_reports_the_last_step(self, monkeypatch):
        shape = builtin_shapes()["blue_square"]
        (ty, tz), (dy, dz) = self.THREE_STEPS
        probed = self.recorded_probes(monkeypatch)
        converged, _ = resolve_substep(shape, PlanarPose(), *self.THREE_STEPS)
        assert len(probed) == 4 and converged is probed[-1]
        probed.clear()
        monkeypatch.setattr(push_dynamics, "MAX_RESOLVE_ITERS", 2)
        with pytest.raises(push_dynamics.PhysicsFault, match="did not converge") as fault:
            resolve_substep(shape, PlanarPose(), *self.THREE_STEPS)
        assert len(probed) == 3
        last, diagnostics = probed[-1], fault.value.diagnostics
        assert diagnostics["object_pose"] == [last.y, last.z, last.alpha]
        assert diagnostics["tip"] == [ty + dy, tz + dz]
        pen = contact_at(shape, last, (ty + dy, tz + dz)).penetration
        assert pen > PENETRATION_TOL_MM
        assert repr(diagnostics["penetration"]) == repr(pen)

    def test_reports_the_first_steps_mode(self, monkeypatch):
        # a push into the mug whose first step slides and whose second
        # sticks (the same within 0.01 mm of the tip): the contact reports
        # the mode of the step that met the drive, the first
        resolved = self.recorded_resolves(monkeypatch)
        _, contact = resolve_substep(builtin_shapes()["mug"], PlanarPose(),
                                     [30.32, -30.86], [-0.075, 0.444])
        assert [mode for _, mode in resolved] == [ContactMode.SLIDING_LEFT, ContactMode.STICKING]
        assert contact.mode is ContactMode.SLIDING_LEFT

    def test_edge_force_that_cannot_reduce_the_overlap_falls_back_to_a_normal_push(self):
        # a square touched on its bottom edge where the left motion-cone edge
        # u_l is all but tangent (u_l . n = 5e-13), by a drive just beyond it:
        # the contact slides left, and undoing the 0.2 mm overlap along u_l
        # would throw the object some 1e10 mm, so the step pushes along n. The
        # square is heavy: with a = 1 / f_max^2 >= 0.5, no drive within the
        # substep cap that approaches by more than 1e-12 gets beyond so flat
        # an edge
        shape = ObjectShape("sq", polygon=[[-30, -30], [30, -30], [30, 30], [-30, 30]],
                            f_max=5.0, m_max=70.0, mu_contact=1.0)
        qy, (dy, dz) = 9.6148351925438, (-0.5, 1.2e-12)
        *_, py, pz, fy, fz, mode = push_dynamics._resolve(shape, PlanarPose(), qy, -30.0,
                                                          0.0, 1.0, dy, dz)
        assert mode is ContactMode.SLIDING_LEFT
        assert 0.0 < float(contact_matrix(*limit_surface(shape), (py, pz))[1] @ (fy, fz)) <= 1e-12
        pose, contact = resolve_substep(shape, PlanarPose(), (qy - dy, -49.8 - dz), (dy, dz))
        assert contact.mode is ContactMode.SLIDING_LEFT
        assert 0.0 < contact.penetration <= PENETRATION_TOL_MM
        assert math.hypot(pose.y, pose.z) < 0.2 and abs(pose.alpha) < 1.0

    def test_probes_once_per_step_on_the_golden(self, monkeypatch):
        # perfbench's probes_per_contact_substep counts these probes: one at
        # the displaced tip, then one at each pose a step advances to; each
        # step calls _resolve once, at the pose probed before it
        probed = self.recorded_probes(monkeypatch)
        resolved = self.recorded_resolves(monkeypatch)
        modes = Counter()
        for case in substep_golden.load_golden():
            probed.clear()
            resolved.clear()
            mode = substep_golden.run_case(case).split()[-1]
            steps = len(probed) - 1
            modes[mode, steps] += 1
            assert probed[0] == PlanarPose(*case["object_pose"])
            poses = [pose for pose, _ in resolved]
            if steps:
                assert len(poses) == steps
                assert all(p is q for p, q in zip(poses, probed))
            elif mode == "separated":
                assert poses == []
            else:
                # grazing: a driven contact is classified at the given pose
                assert len(poses) <= 1 and all(p is probed[0] for p in poses)
        assert modes["separated", 0] > 0 and modes["sticking", 0] > 0  # grazing
        assert modes["sticking", 1] > 0 and modes["sliding_left", 2] > 0


def test_replaced_shapes_resolve_as_freshly_built_ones():
    # every shape carries its own contact-matrix constants and friction
    # cone, so a shape built by dataclasses.replace, from a shape with other
    # values, resolves as one built from scratch; +0.0 and -0.0 friction
    # have cones whose sines differ in sign
    catalog = builtin_shapes()
    cases = substep_golden.load_golden()
    for name, base in catalog.items():
        for mu, f_max, m_max, cof in ((0.0, 2.0, 11.0, (3.0, -2.0)),
                                      (-0.0, 0.7, 19.0, (-1.0, 2.5)),
                                      (0.3, 1.3, 9.0, (0.0, 0.0)),
                                      (1.0, 0.4, 25.0, (2.0, 2.0))):
            replaced = dataclasses.replace(base, mu_contact=mu, f_max=f_max, m_max=m_max,
                                           cof_offset=cof)
            fresh = ObjectShape(name, polygon=base.polygon, radius=base.radius,
                                cof_offset=cof, f_max=f_max, m_max=m_max, mu_contact=mu)
            assert repr(replaced._cone) == repr(fresh._cone)
            assert math.copysign(1.0, fresh._cone[1]) == math.copysign(1.0, mu)
            for case in cases:
                if case["shape"] != name:
                    continue
                pose = PlanarPose(*case["object_pose"])
                got, want = (resolve_substep(s, pose, case["tip"], case["disp"])
                             for s in (replaced, fresh))
                assert repr(got) == repr(want), case


class TestSimulateTap:
    @pytest.mark.parametrize("substep", [0.0, -0.5, math.nan, math.inf, 0.6, 1.0])
    def test_non_positive_or_non_finite_substep_rejected(self, substep):
        # a substep above the cap would fail inside resolve_substep instead
        world = make_world([0.0, -200.0], PlanarPose())
        with pytest.raises(ValueError, match="simulate_tap: substep"):
            simulate_tap(world, square(), PlanarPose(0.0, -190.0, 0.0), substep=substep)

    @pytest.mark.parametrize("name", ["tap_forward", "tap_back"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tap_length_rejected(self, name, value):
        # any finite length is accepted, 0 and negative ones included
        world = make_world([0.0, -200.0], PlanarPose())
        with pytest.raises(ValueError, match=f"simulate_tap: {name} must be finite"):
            simulate_tap(world, square(), PlanarPose(0.0, -190.0, 0.0), **{name: value})

    def test_far_command_never_touches(self):
        shape = square()
        world = make_world([0.0, -200.0], PlanarPose())
        cmd = PlanarPose(0.0, -190.0, 0.0)
        new_world, _, contact = simulate_tap(world, shape, cmd)
        assert new_world.object_pose == world.object_pose
        # the end of the advance is the tap's closest approach
        assert contact.mode is ContactMode.SEPARATED
        assert contact.penetration < 0.0

    def test_forward_tap_advance_matches_closed_form(self):
        # pure sticking translation: object advances by tap length minus the
        # initial gap to the disc, minus the residual overlap margin
        shape = square()
        gap = 2.0
        world = make_world([0.0, -52.0], PlanarPose())
        cmd = PlanarPose(0.0, -52.0, 0.0)
        new_world, _, _ = simulate_tap(world, shape, cmd, tap_forward=10.0, tap_back=5.0)
        advance = new_world.object_pose.z - world.object_pose.z
        assert advance == pytest.approx(10.0 - gap, abs=0.05)
        assert abs(new_world.object_pose.alpha) < 1e-9

    def test_retraction_leaves_object_frozen(self):
        shape = square()
        world = make_world([0.0, -50.5], PlanarPose())
        cmd = PlanarPose(0.0, -50.5, 0.0)
        new_world, sense_heading, contact = simulate_tap(world, shape, cmd)
        advanced, _, _ = simulate_tap(world, shape, cmd, tap_back=0.0)
        assert contact.mode is not ContactMode.SEPARATED
        assert advanced.object_pose != world.object_pose
        assert new_world.object_pose == advanced.object_pose
        assert sense_heading == advanced.pusher_pose.alpha
        tip = advanced.pusher_pose
        reading = contact_at(shape, advanced.object_pose, (tip.y, tip.z))
        assert contact.penetration == pytest.approx(reading.penetration, abs=1e-9)
        assert new_world.pusher_pose.z == pytest.approx(
            advanced.pusher_pose.z - 5.0, abs=1e-9
        )

    def test_pusher_lands_at_net_tap_offset(self):
        shape = square()
        world = make_world([0.0, -200.0], PlanarPose())
        cmd = PlanarPose(3.0, -195.0, 10.0)
        new_world, sense_heading, contact = simulate_tap(
            world, shape, cmd, tap_forward=10.0, tap_back=5.0
        )
        expected = np.array([3.0, -195.0]) + 5.0 * np.array(heading_dir(10.0))
        pusher = new_world.pusher_pose
        assert np.array([pusher.y, pusher.z]) == pytest.approx(expected, abs=1e-9)
        assert pusher.alpha == pytest.approx(10.0)
        deepest = np.array([3.0, -195.0]) + 10.0 * np.array(heading_dir(10.0))
        reading = contact_at(shape, world.object_pose, deepest)
        assert contact.penetration == pytest.approx(reading.penetration, abs=1e-9)
        assert sense_heading == pytest.approx(10.0)

    def test_relocation_can_push(self):
        shape = square()
        world = make_world([0.0, -52.0], PlanarPose())
        # command straight through the object: relocation itself must push it
        cmd = PlanarPose(0.0, -45.0, 0.0)
        new_world, _, contact = simulate_tap(
            world, shape, cmd, tap_forward=0.0, tap_back=0.0
        )
        assert new_world.object_pose.z > world.object_pose.z
        assert contact.mode is not ContactMode.SEPARATED

    @pytest.mark.parametrize("shape_name", ["blue_square", "mug", "circle"])
    def test_skipped_substeps_are_provably_free(self, shape_name, monkeypatch):
        shape = builtin_shapes()[shape_name]
        pose = PlanarPose()
        # approach along +z from well outside, command a tap 6+ mm short of
        # the outline and advance far enough to push
        probe_z = -(shape.max_extent() + TIP_RADIUS_MM + 1.0)
        gap = -contact_at(shape, pose, [0.0, probe_z]).penetration
        cmd = PlanarPose(0.0, probe_z + gap - 6.0, 0.0)
        cmd_gap = -contact_at(shape, pose, (cmd.y, cmd.z)).penetration
        tap_forward, tap_back = cmd_gap + 8.0, 5.0
        world = make_world([15.0, probe_z - 20.0], pose)
        pusher = world.pusher_pose
        assert -contact_at(shape, pose, (pusher.y, pusher.z)).penetration >= 5.0
        assert cmd_gap >= 5.0

        calls = record_substeps(monkeypatch)
        new_world, _, contact = simulate_tap(world, shape, cmd, tap_forward, tap_back)
        assert new_world.object_pose != pose
        assert contact.mode is not ContactMode.SEPARATED
        legs = replay_tap(shape, world, cmd, tap_forward, tap_back, calls)
        assert len(calls) < sum(n for n, _ in legs)

    def test_relocation_inside_the_certificate_probes_only_its_first_substep(
        self, monkeypatch
    ):
        # 40 mm clear of the square, a 6 mm relocation stays inside the
        # certificate of its first substep, its last substep included; the
        # advance runs on from there and reaches the object
        shape, pose = square(), PlanarPose()
        world = make_world([10.0, -90.0], pose)
        cmd = PlanarPose(4.0, -88.0, 0.0)
        calls = record_substeps(monkeypatch)
        new_world, _, contact = simulate_tap(world, shape, cmd, 44.0, 5.0)
        assert new_world.object_pose != pose
        assert contact.mode is not ContactMode.SEPARATED
        (n, reloc), (m, advance), _ = replay_tap(shape, world, cmd, 44.0, 5.0, calls)
        assert n == 13 and reloc == [1]
        assert advance[-1] == m and advance[0] > 1

    def test_relocation_that_only_turns(self, monkeypatch):
        # a relocation of length 0 is one substep of step 0 that turns the pusher
        shape, pose = square(), PlanarPose()
        world = make_world([0.0, -90.0], pose)
        cmd = PlanarPose(0.0, -90.0, 30.0)
        calls = record_substeps(monkeypatch)
        new_world, sense_heading, contact = simulate_tap(world, shape, cmd, 10.0, 5.0)
        assert new_world.object_pose == pose
        assert sense_heading == new_world.pusher_pose.alpha == 30.0
        assert contact.mode is ContactMode.SEPARATED
        (n, reloc), (m, advance), _ = replay_tap(shape, world, cmd, 10.0, 5.0, calls)
        assert (n, reloc) == (1, [1])
        assert np.array_equal(calls[0][1], [0.0, 0.0])
        assert advance == [m]

    @pytest.mark.parametrize(
        "start, cmd, tap_forward, mode, object_z",
        [
            # the relocation skips its last substep, and the advance of 0 runs
            # a substep of length 0 at the commanded pose
            ((0.0, -90.0), (3.0, -87.0), 0.0, ContactMode.SEPARATED, 0.0),
            # the pusher is at the commanded pose, so the relocation has no
            # substep; an advance of 1e-13 mm, below the 1e-12 mm drive, expels
            # the object from 1.5 mm of overlap to the resolution residual
            ((0.0, -48.5), (0.0, -48.5), 1e-13, ContactMode.STICKING, 1.495),
            # the same clear of the square: nothing moves
            ((0.0, -100.0), (0.0, -100.0), 1e-13, ContactMode.SEPARATED, 0.0),
        ],
        ids=["after_a_skipped_relocation", "into_the_square", "clear_of_the_square"],
    )
    def test_the_advance_always_runs_its_last_substep(
        self, start, cmd, tap_forward, mode, object_z, monkeypatch
    ):
        # the tap reports the contact of the advance's last substep, from the
        # commanded pose along the advance, however short the advance is
        shape, pose = builtin_shapes()["blue_square"], PlanarPose()
        world, cmd = make_world(start, pose), PlanarPose(*cmd, 0.0)
        calls = record_substeps(monkeypatch)
        new_world, sense_heading, contact = simulate_tap(world, shape, cmd, tap_forward, 0.0)
        (n, reloc), (m, advance), _ = replay_tap(shape, world, cmd, tap_forward, 0.0, calls)
        assert (m, advance) == (1, [1]) and len(calls) == len(reloc) + 1
        assert n not in reloc  # the relocation's last substep, if it has one, was skipped
        tip, disp, after, _ = calls[len(reloc)]
        assert np.array_equal(tip, (cmd.y, cmd.z))
        assert math.hypot(*disp) == pytest.approx(tap_forward, abs=1e-15)
        before = calls[len(reloc) - 1][2] if reloc else pose
        assert contact == resolve_substep(shape, before, tip, disp)[1]
        assert contact.mode is mode and sense_heading == 0.0
        assert new_world.object_pose == after
        assert (after.y, after.alpha) == (0.0, 0.0)
        assert after.z == pytest.approx(object_z, abs=1e-12)
        in_contact = mode is not ContactMode.SEPARATED
        assert sense_contact(contact, sense_heading).in_contact == in_contact


class TestFreeSpaceCertificate:
    """simulate_tap skips the substeps that the last run substep's contact
    certifies free: beyond its supporting line on a convex outline, in the
    ball of its gap otherwise."""

    def test_retract_after_a_contact_runs_no_substep(self, monkeypatch):
        # the advance ends in contact; the retract moves away from the
        # contact's supporting line, so every retract tip is certified
        shape, pose = square(), PlanarPose()
        world = make_world([0.0, -60.0], pose)
        cmd = PlanarPose(0.0, -52.0, 0.0)
        calls = record_substeps(monkeypatch)
        new_world, _, contact = simulate_tap(world, shape, cmd)
        assert contact.mode is not ContactMode.SEPARATED
        _, (m, advance), (k, retract) = replay_tap(shape, world, cmd, 10.0, 5.0, calls)
        assert advance[-1] == m and retract == [] and k == 10
        assert new_world.object_pose != pose

    def test_tips_within_the_tolerance_of_the_supporting_line_run(self, monkeypatch):
        # a relocation along the square's bottom face with a gap of half the
        # tolerance: every tip lies beyond the face's line by more than the
        # tip radius, but not by the tolerance margin, so every substep runs
        shape, pose = square(), PlanarPose()
        world = make_world([-10.0, -50.005], pose)
        cmd = PlanarPose(10.0, -50.005, 0.0)
        calls = record_substeps(monkeypatch)
        new_world, _, _ = simulate_tap(world, shape, cmd, 10.0, 5.0)
        assert new_world.object_pose != pose
        (n, reloc), _, _ = replay_tap(shape, world, cmd, 10.0, 5.0, calls)
        assert n == 40 and reloc == list(range(1, 41))

    def test_supporting_line_does_not_bound_the_l_shapes_notch(self, monkeypatch):
        # the relocation passes the L's outer corner v2 and ends beyond the
        # inner arm's corner v4, across the notch: the first substep's
        # nearest point is v2, and the line through it certifies every later
        # tip, though the last 8 overlap the arm at v4; only the ball of the
        # gap may skip substeps here
        shape, pose = builtin_shapes()["l_shape"], PlanarPose()
        v2, v4 = shape.polygon[2], shape.polygon[4]
        u = np.array([16.0, 23.0]) / math.hypot(16.0, 23.0)
        start, target = v2 + 28.0 * u, v4 + 19.0 * u
        n = math.ceil(math.hypot(*(target - start)) / SUBSTEP_CAP_MM)
        tips = [start + (target - start) * (i / n) for i in range(1, n + 1)]
        first = contact_at(shape, pose, tips[0])
        assert first.mode is ContactMode.SEPARATED
        assert np.array_equal(first.point, v2)
        margins = [np.dot(np.subtract(first.point, t), first.normal) for t in tips]
        assert min(margins) > TIP_RADIUS_MM + PENETRATION_TOL_MM
        assert contact_at(shape, pose, target).penetration > 0.5

        world = make_world(start, pose)
        cmd = PlanarPose(target[0], target[1], 0.0)
        calls = record_substeps(monkeypatch)
        new_world, _, _ = simulate_tap(world, shape, cmd, 2.0, 1.0)
        assert new_world.object_pose != pose
        (n_reloc, reloc), _, _ = replay_tap(shape, world, cmd, 2.0, 1.0, calls)
        assert n_reloc == n and reloc[-1] == n

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(builtin_shapes())),
           st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-180.0, 180.0)),
           st.floats(0.0, 360.0), st.floats(0.0, 40.0),
           st.floats(0.0, 360.0), st.floats(-25.0, 30.0), st.floats(-60.0, 60.0),
           st.floats(1.0, 15.0), st.floats(0.0, 1.0))
    def test_skipped_substeps_are_free_on_every_catalog_shape(
        self, name, obj, start_deg, start_gap, cmd_deg, cmd_gap, heading_off, tap_forward,
        back_share,
    ):
        # the pusher starts clear of the object and is commanded to a random
        # pose near it, heading within 60 degrees of the way to the object's
        # origin; the command may lie inside the outline, so the relocation
        # may push
        shape, pose = builtin_shapes()[name], PlanarPose(*obj)
        origin = np.array([pose.y, pose.z])
        extent = shape.max_extent() + TIP_RADIUS_MM

        def around(deg, r):
            return origin + r * np.array([math.cos(math.radians(deg)),
                                          math.sin(math.radians(deg))])

        world = make_world(around(start_deg, extent + start_gap), pose)
        cmd_pos = around(cmd_deg, extent + cmd_gap)
        cmd = PlanarPose(cmd_pos[0], cmd_pos[1],
                         dir_heading(origin - cmd_pos) + heading_off)
        tap_back = back_share * tap_forward
        with pytest.MonkeyPatch.context() as mp:
            calls = record_substeps(mp)
            simulate_tap(world, shape, cmd, tap_forward, tap_back)
        replay_tap(shape, world, cmd, tap_forward, tap_back, calls)


CONVEX_SHAPES = ("blue_square", "red_square", "yellow_triangle", "rectangle", "circle")


@functools.lru_cache(maxsize=None)
def closed_loop_taps(shape_name: str) -> tuple:
    """The taps of one noisy closed-loop trial on a catalog shape, each as
    (world before it, command, tap_forward, tap_back, its resolve_substep
    calls as record_substeps keeps them, simulate_tap's result). Convex
    shapes start at an exp-2 corner, l_shape and mug at an exp-3 heading."""
    if shape_name in CONVEX_SHAPES:
        scenario = exp_harness.exp2_scenario(shape_name, 0, seed=11)
    else:
        scenario = next(s for s in exp_harness.exp3_grid(1, 5) if s.object.name == shape_name)
    taps = []
    real_tap = exp_harness.simulate_tap
    with pytest.MonkeyPatch.context() as mp:
        calls = record_substeps(mp)

        def recording(world, shape, cmd, tap_forward, tap_back):
            calls.clear()
            out = real_tap(world, shape, cmd, tap_forward=tap_forward, tap_back=tap_back)
            taps.append((world, cmd, tap_forward, tap_back, tuple(calls), out))
            return out

        mp.setattr(exp_harness, "simulate_tap", recording)
        exp_harness.run_trial(dataclasses.replace(scenario, max_taps=80))
    assert len(taps) > 20
    return tuple(taps)


class TestCarriedCertificate:
    """A tap's world carries the contact of its last substep that ran, and
    the next tap starts from that contact's certificate: its supporting line
    on a convex outline, the ball of its gap on another."""

    @pytest.mark.parametrize("shape_name", sorted(builtin_shapes()))
    def test_skipped_tips_are_free_across_taps_in_closed_loop(self, shape_name):
        # every tip a tap skips, its relocation's first included, is re-probed
        # at the object pose the tap has there
        shape = builtin_shapes()[shape_name]
        first_skipped = 0
        for world, cmd, tap_forward, tap_back, calls, (after, _, _) in closed_loop_taps(
                shape_name):
            (n, reloc), _, _ = replay_tap(shape, world, cmd, tap_forward, tap_back, list(calls))
            first_skipped += n > 0 and reloc[:1] != [1]
            assert after.contact == calls[-1][3]
        assert first_skipped > len(closed_loop_taps(shape_name)) // 2

    @pytest.mark.parametrize("shape_name", sorted(builtin_shapes()))
    def test_a_carried_tap_equals_a_cold_one_with_fewer_substeps(self, shape_name, monkeypatch):
        # the same tap from the world without its contact gives the same
        # poses, reported contact and sense heading, bit for bit
        shape = builtin_shapes()[shape_name]
        cold_calls = record_substeps(monkeypatch)
        warm = cold = 0
        for world, cmd, tap_forward, tap_back, calls, out in closed_loop_taps(shape_name):
            cold_calls.clear()
            cold_out = simulate_tap(world._replace(contact=None), shape, cmd, tap_forward, tap_back)
            assert repr(cold_out[0][:2] + cold_out[1:]) == repr(out[0][:2] + out[1:])
            warm, cold = warm + len(calls), cold + len(cold_calls)
        assert warm < cold

    def test_the_first_tap_starts_from_the_trials_start_probe(self, monkeypatch):
        # run_trial probes the start with contact_at before its first tap;
        # from a start 1 mm clear of blue_square, that tap carries the probe's
        # contact and equals the same tap from the world without it, with
        # fewer substeps (the exp-1 starts overlap the square, so their probe
        # certifies no tip)
        scenario = exp_harness.exp1_scenario(10.0, 0.0, seed=3, max_taps=1)
        start = scenario.pusher_start_pose
        hy, hz = heading_dir(start.alpha)
        start = PlanarPose(start.y - 2.0 * hy, start.z - 2.0 * hz, start.alpha)
        shape, taps, real_tap = scenario.object, [], exp_harness.simulate_tap

        def recording(world, shape, cmd, tap_forward, tap_back):
            calls.clear()
            out = real_tap(world, shape, cmd, tap_forward=tap_forward, tap_back=tap_back)
            taps.append((world, cmd, tap_forward, tap_back, len(calls), out))
            return out

        calls = record_substeps(monkeypatch)
        monkeypatch.setattr(exp_harness, "simulate_tap", recording)
        exp_harness.run_trial(dataclasses.replace(scenario, pusher_start_pose=start))
        (world, cmd, tap_forward, tap_back, warm, out), = taps
        assert world.contact == contact_at(shape, world.object_pose, (start.y, start.z))
        assert world.contact.mode is ContactMode.SEPARATED
        calls.clear()
        cold_out = simulate_tap(world._replace(contact=None), shape, cmd, tap_forward, tap_back)
        assert repr(cold_out[0][:2] + cold_out[1:]) == repr(out[0][:2] + out[1:])
        assert warm < len(calls)

    def test_the_world_carries_the_last_substeps_contact(self, monkeypatch):
        # heading away from the square, a 1 mm advance ends clear of it and a
        # 6 mm retract pushes it: the world carries the retract's contact,
        # not the advance's, since the square has moved since
        shape, pose = square(), PlanarPose()
        world = make_world([0.0, -52.0], pose)
        cmd = PlanarPose(0.0, -52.0, 180.0)
        calls = record_substeps(monkeypatch)
        new_world, _, contact = simulate_tap(world, shape, cmd, 1.0, 6.0)
        assert contact.mode is ContactMode.SEPARATED
        assert new_world.object_pose.z > 2.0
        assert new_world.contact == calls[-1][3]
        assert new_world.contact.mode is not ContactMode.SEPARATED

    def test_a_world_of_poses_carries_no_contact_and_is_immutable(self):
        world = make_world([0.0, -52.0], PlanarPose())
        assert world.contact is None
        with pytest.raises(AttributeError):
            world.object_pose = PlanarPose(1.0, 0.0, 0.0)
