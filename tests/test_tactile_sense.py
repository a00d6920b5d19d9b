import math

import numpy as np
import pytest

from tacpush.pose_math import EulerPose, euler_to_transform, transform_to_euler
from tacpush.push_controller import prediction_to_pose
from tacpush.push_dynamics import ContactMode, ContactState, contact_at
from tacpush.scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    builtin_shapes,
    dir_heading,
)
from tacpush.tactile_sense import (
    ALPHA_RANGE_DEG,
    NoiseModel,
    PosePrediction,
    Z_RANGE_MM,
    apply_noise,
    sense_contact,
)

from se3_helpers import embed, matrix


def world_with_square(tip_center, pusher_alpha=0.0, square_z=None, side=60.0):
    """Square object ahead of a pusher; near edge at z = square_z (default 0)."""
    h = side / 2
    shape = ObjectShape("sq", polygon=[[-h, -h], [h, -h], [h, h], [-h, h]])
    obj_z = (0.0 if square_z is None else square_z) + h
    world = WorldState(
        PlanarPose(0.0, obj_z, 0.0), PlanarPose(tip_center[0], tip_center[1], pusher_alpha)
    )
    return world, shape


def sense(world, shape):
    """The reading of a pusher at rest in `world`."""
    contact = contact_at(shape, world.object_pose, (world.pusher_pose.y, world.pusher_pose.z))
    return sense_contact(contact, world.pusher_pose.alpha)


class TestSenseContact:
    def test_reference_configuration(self):
        # tip centre 18 mm from a flat edge, axis into the edge: depth 2, aligned
        world, shape = world_with_square([0.0, -18.0])
        pred = sense(world, shape)
        assert pred.in_contact
        assert pred.z_depth == pytest.approx(2.0)
        assert pred.alpha == pytest.approx(0.0)
        assert not pred.clamped

    def test_out_of_reach(self):
        world, shape = world_with_square([0.0, -22.0])
        pred = sense(world, shape)
        assert not pred.in_contact
        assert pred.z_depth is None
        assert pred.alpha is None

    def test_rotated_axis_reads_signed_angle(self):
        world, shape = world_with_square([0.0, -18.0], pusher_alpha=10.0)
        pred = sense(world, shape)
        assert pred.alpha == pytest.approx(10.0)
        world, shape = world_with_square([0.0, -18.0], pusher_alpha=-7.0)
        assert sense(world, shape).alpha == pytest.approx(-7.0)

    def test_depth_clamping(self):
        world, shape = world_with_square([0.0, -14.0])  # 6 mm deep
        pred = sense(world, shape)
        assert pred.z_depth == Z_RANGE_MM[1]
        assert pred.clamped

    def test_below_minimum_depth_clamps_up(self):
        world, shape = world_with_square([0.0, -19.5])  # 0.5 mm deep
        pred = sense(world, shape)
        assert pred.in_contact
        assert pred.z_depth == Z_RANGE_MM[0]
        assert pred.clamped

    def test_angle_clamping(self):
        world, shape = world_with_square([0.0, -18.0], pusher_alpha=30.0)
        pred = sense(world, shape)
        assert pred.alpha == ALPHA_RANGE_DEG[1]
        assert pred.clamped

    def test_reads_the_contact_state_it_is_given(self):
        # the reading depends on the penetration and normal alone: a pushing
        # mode without overlap reads no contact
        normal = np.array([0.0, 1.0])
        pred = sense_contact(
            ContactState(np.zeros(2), normal, ContactMode.SLIDING_LEFT, 2.5), 5.0
        )
        assert (pred.in_contact, pred.z_depth, pred.alpha) == (True, 2.5, 5.0)
        gone = ContactState(np.zeros(2), normal, ContactMode.STICKING, -0.001)
        assert not sense_contact(gone, 5.0).in_contact

    def test_geometry_reconstruction(self):
        # with noise off, (z, alpha) exactly encode boundary distance and
        # normal heading for in-range contacts
        rng = np.random.default_rng(0)
        shapes = builtin_shapes()
        checked = 0
        for _ in range(300):
            shape = list(shapes.values())[int(rng.integers(len(shapes)))]
            pose = PlanarPose(
                float(rng.uniform(-50, 50)),
                float(rng.uniform(-50, 50)),
                float(rng.uniform(-180, 180)),
            )
            ang = float(rng.uniform(0, 2 * math.pi))
            probe = (pose.y + 300.0 * math.cos(ang), pose.z + 300.0 * math.sin(ang))
            _, point, n_out, _ = boundary_probe(shape, pose, probe)
            point, n_out = np.asarray(point), np.asarray(n_out)
            depth = float(rng.uniform(1.2, 4.8))
            center = point + (TIP_RADIUS_MM - depth) * n_out
            axis_dev = float(rng.uniform(-15, 15))
            pusher_alpha = dir_heading(-n_out) + axis_dev
            world = WorldState(
                pose, PlanarPose(float(center[0]), float(center[1]), pusher_alpha)
            )
            pred = sense(world, shape)
            if pred.clamped or not pred.in_contact:
                continue
            sd, _, n_out2, _ = boundary_probe(shape, pose, center)
            n_out2 = np.asarray(n_out2)
            assert pred.z_depth == pytest.approx(TIP_RADIUS_MM - sd, abs=1e-9)
            recon_heading = pusher_alpha - pred.alpha
            assert math.isclose(
                math.cos(math.radians(recon_heading - dir_heading(-n_out2))), 1.0,
                abs_tol=1e-9,
            )
            checked += 1
        assert checked > 200


class TestApplyNoise:
    def contact_pred(self, z=2.0, alpha=5.0):
        return PosePrediction(True, z_depth=z, alpha=alpha)

    def test_disabled_passthrough(self):
        pred = self.contact_pred()
        noise = NoiseModel(enabled=False)
        assert apply_noise(pred, noise, np.random.default_rng(0)) is pred

    def test_no_contact_passthrough(self):
        pred = PosePrediction(False)
        assert apply_noise(pred, NoiseModel(), np.random.default_rng(0)) is pred

    def test_deterministic_given_seed(self):
        pred = self.contact_pred()
        noise = NoiseModel()
        a = apply_noise(pred, noise, np.random.default_rng(123))
        b = apply_noise(pred, noise, np.random.default_rng(123))
        assert a == b

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(), NoiseModel(sigma_z=0.7, sigma_alpha=0.05), NoiseModel(0.0, 0.0),
         NoiseModel(1e-300, 1e-300), NoiseModel(1e300, 1e300)],
        ids=["default", "wide_z", "zero", "tiny", "huge"],
    )
    def test_draws_z_then_alpha_from_the_generator(self, noise):
        # each reading adds rng.normal(0, sigma_z) to z, then
        # rng.normal(0, sigma_alpha) to alpha, from the same seeded stream,
        # and clamps; readings are compared as text, so the sign of a zero
        # counts: with sigma 0 numpy's draw is +0.0, and -0.0 + 0.0 is +0.0
        rng, draws = np.random.default_rng(42), np.random.default_rng(42)
        for alpha in [2.0, -0.0] * 10:
            out = apply_noise(self.contact_pred(z=3.0, alpha=alpha), noise, rng)
            z = 3.0 + float(draws.normal(0.0, noise.sigma_z))
            a = alpha + float(draws.normal(0.0, noise.sigma_alpha))
            want = (min(max(z, Z_RANGE_MM[0]), Z_RANGE_MM[1]),
                    min(max(a, ALPHA_RANGE_DEG[0]), ALPHA_RANGE_DEG[1]))
            assert repr(out) == repr(PosePrediction(True, *want, want != (z, a)))

    def test_beta_stays_zero(self):
        # noise moves z and alpha only; the sensed pose keeps x, y, beta and
        # gamma at exactly zero
        out = apply_noise(self.contact_pred(), NoiseModel(), np.random.default_rng(1))
        e = transform_to_euler(embed(prediction_to_pose(out)))
        assert (e.x, e.y, e.beta, e.gamma) == (0.0, 0.0, 0.0, 0.0)
        assert (e.z, e.alpha) == pytest.approx((out.z_depth, out.alpha), abs=1e-12)

    def test_reclamped_to_ranges(self):
        rng = np.random.default_rng(2)
        pred = self.contact_pred(z=4.9, alpha=19.5)
        for _ in range(2_000):
            out = apply_noise(pred, NoiseModel(), rng)
            assert Z_RANGE_MM[0] <= out.z_depth <= Z_RANGE_MM[1]
            assert ALPHA_RANGE_DEG[0] <= out.alpha <= ALPHA_RANGE_DEG[1]

    def test_gaussian_statistics(self):
        # sample mean near zero, MAE near sigma * sqrt(2/pi)
        n = 100_000
        sigma = 0.1
        rng = np.random.default_rng(3)
        pred = self.contact_pred(z=3.0, alpha=0.0)
        noise = NoiseModel(sigma_z=sigma, sigma_alpha=0.0)
        dz = np.array(
            [apply_noise(pred, noise, rng).z_depth - 3.0 for _ in range(n)]
        )
        assert abs(dz.mean()) < 3.0 * sigma / math.sqrt(n)
        expected_mae = sigma * math.sqrt(2.0 / math.pi)
        assert abs(np.abs(dz).mean() - expected_mae) < 0.05 * expected_mae

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_z=-0.1)
        for value in (math.nan, math.inf):
            for sigmas in ({"sigma_z": value}, {"sigma_alpha": value}):
                with pytest.raises(ValueError, match="sigmas must be finite and >= 0"):
                    NoiseModel(**sigmas)


class TestPredictionToPose:
    def test_pure_depth(self):
        t = embed(prediction_to_pose(PosePrediction(True, z_depth=2.0, alpha=0.0)))
        assert np.allclose(t.rotation, np.eye(3))
        assert np.allclose(t.translation, [0.0, 0.0, 2.0])

    def test_depth_with_angle_matches_direct_matrix(self):
        t = embed(prediction_to_pose(PosePrediction(True, z_depth=2.0, alpha=10.0)))
        direct = euler_to_transform(EulerPose(0.0, 0.0, 2.0, 10.0, 0.0, 0.0))
        assert np.allclose(matrix(t), matrix(direct))

    def test_no_contact_rejected(self):
        with pytest.raises(ValueError):
            prediction_to_pose(PosePrediction(False))
