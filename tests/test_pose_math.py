import dataclasses
import math

import numpy as np
import pytest

from tacpush.pose_math import (
    EulerPose,
    Transform,
    compose,
    euler_to_transform,
    inverse,
    normalize_angle_deg,
    transform_to_euler,
)

from se3_helpers import identity, matrix, rot_x, rot_y, rot_z, rotation_drift


def random_pose(rng, beta_limit=85.0):
    return EulerPose(
        *rng.uniform(-500, 500, size=3),
        float(rng.uniform(-180, 180)),
        float(rng.uniform(-beta_limit, beta_limit)),
        float(rng.uniform(-180, 180)),
    )


def random_transform(rng, beta_limit=89.9):
    return euler_to_transform(random_pose(rng, beta_limit))


def angle_close(a, b, tol=1e-6):
    return abs(normalize_angle_deg(a - b)) < tol


class TestAngleNormalization:
    def test_half_open_interval(self):
        assert normalize_angle_deg(180.0) == 180.0
        assert normalize_angle_deg(-180.0) == 180.0
        assert normalize_angle_deg(540.0) == 180.0
        assert normalize_angle_deg(-190.0) == pytest.approx(170.0)
        assert normalize_angle_deg(170.0) == pytest.approx(170.0)
        assert normalize_angle_deg(0.0) == 0.0


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(1)
        t = random_transform(rng)
        for other in (compose(identity(), t), compose(t, identity())):
            assert np.allclose(other.rotation, t.rotation, atol=1e-12)
            assert np.allclose(other.translation, t.translation, atol=1e-12)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = random_transform(rng)
            ident = compose(t, inverse(t))
            assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(ident.translation, 0.0, atol=1e-9)

    def test_rotation_about_x_adds(self):
        half = euler_to_transform(EulerPose(alpha=90.0))
        full = compose(half, half)
        direct = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        assert np.allclose(full.rotation, direct, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (random_transform(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.allclose(matrix(left), matrix(right), atol=1e-9)

    def test_long_chain_stays_orthonormal(self):
        rng = np.random.default_rng(4)
        t = identity()
        step = euler_to_transform(EulerPose(0.1, -0.2, 0.3, 0.37, 0.21, -0.43))
        for _ in range(10_000):
            t = compose(t, step)
        assert rotation_drift(t) < 1e-9


class TestInverse:
    def test_identity(self):
        inv = inverse(identity())
        assert np.allclose(matrix(inv), np.eye(4))

    def test_pure_translation(self):
        t = euler_to_transform(EulerPose(1.0, 2.0, 3.0))
        inv = inverse(t)
        assert np.allclose(inv.rotation, np.eye(3))
        assert np.allclose(inv.translation, [-1.0, -2.0, -3.0])

    def test_transpose_form(self):
        rng = np.random.default_rng(5)
        t = random_transform(rng)
        inv = inverse(t)
        assert np.allclose(inv.rotation, t.rotation.T)
        assert np.allclose(inv.translation, -t.rotation.T @ t.translation)


class TestEulerToTransform:
    def test_zero_is_identity(self):
        assert np.allclose(matrix(euler_to_transform(EulerPose())), np.eye(4))

    def test_matches_factor_product(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            e = random_pose(rng, beta_limit=180.0)
            direct = rot_z(e.gamma) @ rot_y(e.beta) @ rot_x(e.alpha)
            assert np.allclose(euler_to_transform(e).rotation, direct, atol=1e-12)

    def test_work_frame_pose(self):
        # mounting pose with beta at the gimbal singularity
        e = EulerPose(-85.0, -330.0, 70.0, 180.0, -90.0, 0.0)
        t = euler_to_transform(e)
        direct = rot_z(0.0) @ rot_y(-90.0) @ rot_x(180.0)
        assert np.allclose(t.rotation, direct, atol=1e-12)
        assert np.allclose(t.translation, [-85.0, -330.0, 70.0])

    def test_quarter_turn_maps_y_to_z(self):
        t = euler_to_transform(EulerPose(alpha=90.0))
        assert np.allclose(t.rotation @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


class TestTransformToEuler:
    def test_identity(self):
        e = transform_to_euler(identity())
        assert dataclasses.astuple(e) == pytest.approx(np.zeros(6))

    def test_round_trip_euler(self):
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            e = random_pose(rng)
            back = transform_to_euler(euler_to_transform(e))
            assert angle_close(back.alpha, e.alpha)
            assert angle_close(back.beta, e.beta)
            assert angle_close(back.gamma, e.gamma)
            assert np.allclose(
                [back.x, back.y, back.z], [e.x, e.y, e.z], atol=1e-9
            )

    def test_round_trip_transform_at_gimbal_lock(self):
        rng = np.random.default_rng(8)
        for beta in (90.0, -90.0):
            for _ in range(200):
                e = EulerPose(0, 0, 0, float(rng.uniform(-180, 180)), beta,
                              float(rng.uniform(-180, 180)))
                t = euler_to_transform(e)
                back = transform_to_euler(t)
                assert back.gamma == 0.0
                t2 = euler_to_transform(back)
                assert np.allclose(matrix(t2), matrix(t), atol=1e-9)

    def test_gimbal_branch_value(self):
        t = Transform(rot_y(-90.0), np.zeros(3))
        e = transform_to_euler(t)
        assert dataclasses.astuple(e) == pytest.approx([0, 0, 0, 0, -90.0, 0], abs=1e-9)

    def test_work_frame_pose_recovered(self):
        e = EulerPose(-85.0, -330.0, 70.0, 180.0, -90.0, 0.0)
        back = transform_to_euler(euler_to_transform(e))
        assert back.alpha == pytest.approx(180.0)
        assert back.beta == pytest.approx(-90.0)
        assert back.gamma == 0.0
