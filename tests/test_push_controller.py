import math

import numpy as np
import pytest

from tacpush.exp_harness import exp1_scenario, run_trial
from tacpush.pose_math import (
    EulerPose,
    Transform,
    compose,
    euler_to_transform,
    inverse,
    transform_to_euler,
)
from tacpush.push_controller import (
    ControllerConfig,
    ControllerState,
    Status,
    alignment_pid_step,
    compose_command,
    control_step,
    pid6_step,
    servo_error,
    target_bearing,
)
from tacpush.scene import PlanarPose, builtin_shapes
from tacpush.tactile_sense import NoiseModel, PosePrediction


def pose6(*vals):
    return euler_to_transform(EulerPose(*vals))


def contact_pred(z=2.0, alpha=0.0):
    return PosePrediction(True, z_depth=z, alpha=alpha)


class TestServoError:
    def test_zero_at_reference(self):
        ref = pose6(0, 0, 2, 0, 0, 0)
        e = servo_error(ref, ref)
        assert e.as_array() == pytest.approx(np.zeros(6), abs=1e-12)

    def test_over_deep_contact_commands_retreat(self):
        e = servo_error(pose6(0, 0, 4), pose6(0, 0, 2))
        assert e.as_array() == pytest.approx([0, 0, -2, 0, 0, 0], abs=1e-12)

    def test_pure_angle_error_is_pure_rotation(self):
        # equal depths: the error is a rotation about the tip centre with no
        # translation component (verified against the direct matrix product)
        pred = pose6(0, 0, 2, 10, 0, 0)
        ref = pose6(0, 0, 2, 0, 0, 0)
        direct = transform_to_euler(compose(inverse(pred), ref))
        e = servo_error(pred, ref)
        assert e == direct
        assert e.alpha == pytest.approx(-10.0)
        assert np.allclose([e.x, e.y, e.z], 0.0, atol=1e-12)

    def test_mixed_error_differs_from_vector_subtraction(self):
        pred = pose6(0, 0, 4, 10, 0, 0)
        ref = pose6(0, 0, 2, 0, 0, 0)
        e = servo_error(pred, ref).as_array()
        naive = np.array([0, 0, -2, -10, 0, 0])
        # rotation channel agrees, translation picks up a rotated-frame term
        assert e[3] == pytest.approx(-10.0)
        assert abs(e[1] - naive[1]) > 0.1
        expected_y = float((inverse(pred).rotation @ (ref.translation - pred.translation))[1])
        assert e[1] == pytest.approx(expected_y)


class TestPid6:
    def test_zero_error_zero_output(self):
        out = pid6_step(ControllerState(), EulerPose(), ControllerConfig())
        assert out.as_array() == pytest.approx(np.zeros(6))

    def test_default_gain_arithmetic(self):
        # fresh state, error (0,0,1,2,0,3): P 0.9 + I 0.1 on z/alpha, zeros elsewhere
        out = pid6_step(
            ControllerState(), EulerPose(0, 0, 1, 2, 0, 3), ControllerConfig()
        )
        assert out.as_array() == pytest.approx([0, 0, 1.0, 2.0, 0, 0])

    def test_constant_error_closed_form(self):
        cfg = ControllerConfig()
        state = ControllerState()
        e = EulerPose(0, 0, 1.0, 0, 0, 0)
        for n in range(1, 12):
            out = pid6_step(state, e, cfg)
            expected = 0.9 * 1.0 + 0.1 * min(float(n), 5.0)
            assert out.z == pytest.approx(expected)

    def test_integral_clipping_channelwise(self):
        cfg = ControllerConfig()
        state = ControllerState()
        e = EulerPose(0, 0, 100.0, -100.0, 0, 0)
        for _ in range(10):
            pid6_step(state, e, cfg)
        assert state.integral6[2] == 5.0
        assert state.integral6[3] == -25.0

    def test_derivative_acts_on_error_change(self):
        cfg = ControllerConfig(kp_servo=(0,) * 6, ki_servo=(0,) * 6,
                               kd_servo=(0, 0, 1.0, 0, 0, 0))
        state = ControllerState()
        out1 = pid6_step(state, EulerPose(0, 0, 2.0, 0, 0, 0), cfg)
        assert out1.z == pytest.approx(2.0)
        out2 = pid6_step(state, EulerPose(0, 0, 2.0, 0, 0, 0), cfg)
        assert out2.z == pytest.approx(0.0)


class TestTargetBearing:
    def test_dead_ahead(self):
        theta, r = target_bearing(
            Transform.identity(), Transform.identity(), pose6(0, 0, 100)
        )
        assert theta == pytest.approx(0.0)
        assert r == pytest.approx(100.0)

    def test_diagonal(self):
        theta, r = target_bearing(
            Transform.identity(), Transform.identity(), pose6(0, 100, 100)
        )
        assert theta == pytest.approx(45.0)
        assert r == pytest.approx(math.hypot(100, 100))

    def test_behind(self):
        theta, _ = target_bearing(
            Transform.identity(), Transform.identity(), pose6(0, 1, -100)
        )
        assert theta > 90.0
        theta, _ = target_bearing(
            Transform.identity(), Transform.identity(), pose6(0, -1, -100)
        )
        assert theta < -90.0

    def test_measured_in_correction_frame(self):
        # turning the correction frame by +30 deg puts a dead-ahead target
        # at bearing +30 in that frame
        correction = pose6(0, 0, 0, 30, 0, 0)
        theta, _ = target_bearing(correction, Transform.identity(), pose6(0, 0, 100))
        assert theta == pytest.approx(30.0)

    def test_pusher_frame_offset(self):
        pusher = pose6(0, 50, 0, 0, 0, 0)
        theta, r = target_bearing(Transform.identity(), pusher, pose6(0, 50, 80))
        assert theta == pytest.approx(0.0)
        assert r == pytest.approx(80.0)


class TestAlignmentPid:
    def test_zero_error(self):
        assert alignment_pid_step(ControllerState(), 0.0, ControllerConfig()) == 0.0

    def test_first_step_saturates(self):
        # kp 0.2 + kd 0.5 on a fresh state: 10 deg error clips at 5 mm
        v = alignment_pid_step(ControllerState(), -10.0, ControllerConfig())
        assert v == 5.0

    def test_second_step_drops_derivative(self):
        state = ControllerState()
        cfg = ControllerConfig()
        alignment_pid_step(state, -10.0, cfg)
        v = alignment_pid_step(state, -10.0, cfg)
        assert v == pytest.approx(0.2 * 10.0)

    def test_output_clip(self):
        for theta in (-170.0, 170.0):
            v = alignment_pid_step(ControllerState(), theta, ControllerConfig())
            assert abs(v) == 5.0


class TestComposeCommand:
    def test_identity_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pusher = pose6(
                0, *rng.uniform(-300, 300, size=2), float(rng.uniform(-180, 180)), 0, 0
            )
            cmd = compose_command(Transform.identity(), 0.0, pusher)
            assert np.allclose(cmd.matrix(), pusher.matrix(), atol=1e-12)

    def test_lateral_move_along_sensor_y(self):
        cmd = compose_command(Transform.identity(), 5.0, Transform.identity())
        assert np.allclose(cmd.translation, [0.0, 5.0, 0.0])
        pusher = pose6(0, 0, 0, 90, 0, 0)
        cmd = compose_command(Transform.identity(), 5.0, pusher)
        assert np.allclose(cmd.translation, [0.0, 0.0, 5.0], atol=1e-12)

    def test_lateral_move_in_corrected_frame(self):
        u = pose6(0, 0, 0, 10, 0, 0)
        ordered = compose_command(u, 5.0, Transform.identity())
        reversed_product = compose(
            euler_to_transform(EulerPose(0, 5.0, 0, 0, 0, 0)), u
        )
        assert not np.allclose(ordered.matrix(), reversed_product.matrix())
        expected = compose(u, euler_to_transform(EulerPose(0, 5.0, 0, 0, 0, 0)))
        assert np.allclose(ordered.matrix(), expected.matrix())


class TestControlStep:
    def setup_method(self):
        self.cfg = ControllerConfig()
        self.target = PlanarPose(0, 500)

    def test_equilibrium_command_is_current_pose(self):
        # reference-perfect contact, target dead ahead, outside the zone:
        # the command equals the pusher pose (progress comes from the tap)
        state = ControllerState()
        pusher = PlanarPose()
        dec = control_step(contact_pred(), pusher, self.target, state, self.cfg)
        assert dec.status is Status.CONTINUE
        cmd = dec.command
        assert np.allclose([cmd.y, cmd.z, cmd.alpha], [pusher.y, pusher.z, pusher.alpha],
                           atol=1e-9)
        assert dec.v == 0.0

    def test_lateral_target_commands_signed_v(self):
        # target on the -y side reads a negative bearing and a positive v
        state = ControllerState()
        dec = control_step(
            contact_pred(), PlanarPose(), PlanarPose(-200, 350), state, self.cfg
        )
        assert dec.theta < 0
        assert dec.v > 0
        dec2 = control_step(
            contact_pred(), PlanarPose(), PlanarPose(200, 350),
            ControllerState(), self.cfg,
        )
        assert dec2.theta > 0
        assert dec2.v < 0

    def test_termination_inside_radius(self):
        dec = control_step(
            contact_pred(), PlanarPose(), PlanarPose(9, 12),
            ControllerState(), self.cfg,
        )
        assert dec.status is Status.TARGET_REACHED
        assert dec.command is None
        # a target at the radius, 20 mm away, is not reached yet
        dec = control_step(
            contact_pred(), PlanarPose(), PlanarPose(12, 16),
            ControllerState(), self.cfg,
        )
        assert dec.status is Status.CONTINUE

    def test_alignment_disengaged_inside_zone(self):
        state = ControllerState()
        state.prev_epsilon = 33.0
        state.integral_theta = 12.0
        dec = control_step(
            contact_pred(alpha=2.0), PlanarPose(), PlanarPose(30, 30),
            state, self.cfg,
        )
        assert dec.status is Status.CONTINUE
        assert dec.v == 0.0
        # alignment memory frozen while disengaged
        assert state.prev_epsilon == 33.0
        assert state.integral_theta == 12.0

    def test_reacquire_then_lost_contact(self):
        state = ControllerState()
        pusher = PlanarPose()
        missing = PosePrediction(False)
        for k in range(self.cfg.reacquire_limit):
            dec = control_step(missing, pusher, self.target, state, self.cfg)
            assert dec.status is Status.CONTINUE
            # creeps along the last known normal (here: the current axis)
            assert np.allclose(
                dec.command.position,
                pusher.position + [0.0, self.cfg.reacquire_advance],
            )
            assert np.isclose(dec.command.alpha, pusher.alpha)
        dec = control_step(missing, pusher, self.target, state, self.cfg)
        assert dec.status is Status.LOST_CONTACT

    def test_contact_resets_reacquire_streak(self):
        state = ControllerState()
        missing = PosePrediction(False)
        control_step(missing, PlanarPose(), self.target, state, self.cfg)
        control_step(contact_pred(), PlanarPose(), self.target, state, self.cfg)
        assert state.no_contact_streak == 0

    def test_v_and_integral_bounded_under_wild_inputs(self):
        rng = np.random.default_rng(5)
        state = ControllerState()
        for _ in range(300):
            pred = contact_pred(
                z=float(rng.uniform(1, 5)), alpha=float(rng.uniform(-20, 20))
            )
            target = PlanarPose(float(rng.uniform(-400, 400)), float(rng.uniform(-400, 400)))
            pusher = PlanarPose(*rng.uniform(-50, 50, size=2), float(rng.uniform(-180, 180)))
            dec = control_step(pred, pusher, target, state, self.cfg)
            if dec.status is not Status.CONTINUE:
                continue
            assert abs(dec.v) <= 5.0
            assert np.all(np.abs(state.integral6[:3]) <= 5.0 + 1e-12)
            assert np.all(np.abs(state.integral6[3:]) <= 25.0 + 1e-12)


class TestConfigValidation:
    def test_clip_ranges(self):
        with pytest.raises(ValueError):
            ControllerConfig(alignment_clip=(5.0, -5.0))

    def test_zone_ordering(self):
        with pytest.raises(ValueError):
            ControllerConfig(termination_radius=70.0)
        for radius in ("approach_zone_radius", "termination_radius"):
            with pytest.raises(ValueError, match="zone radii"):
                ControllerConfig(**{radius: math.nan})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"tap_forward": 0.0}, "tap lengths"),
         ({"tap_forward": math.nan}, "tap lengths"),
         ({"tap_back": math.nan}, "tap lengths"),
         ({"reacquire_limit": 0}, "reacquire_limit"),
         ({"reacquire_limit": math.nan}, "reacquire_limit")],
        ids=["tap_forward_zero", "tap_forward_nan", "tap_back_nan",
             "reacquire_limit_zero", "reacquire_limit_nan"],
    )
    def test_tap_and_reacquire_limits(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ControllerConfig(**kwargs)

    def test_gain_length(self):
        with pytest.raises(ValueError):
            ControllerConfig(kp_servo=(1.0, 2.0))


class TestClosedLoop:
    def test_symmetric_push_stays_straight(self):
        # centred perpendicular push, target dead ahead, noise off
        shape = builtin_shapes()["blue_square"]
        sc = exp1_scenario(
            0.0, 0.0, seed=0, noise=NoiseModel(enabled=False), max_taps=120
        )
        sc = type(sc)(
            name="straight",
            object=sc.object,
            object_start_pose=sc.object_start_pose,
            pusher_start_pose=sc.pusher_start_pose,
            target_pose=PlanarPose(0.0, 400.0, 0.0),
            controller=sc.controller,
            noise=sc.noise,
            rng_seed=0,
            max_taps=150,
        )
        rec = run_trial(sc)
        assert rec.outcome == "reached"
        rotations = [abs(t.object_pose[2]) for t in rec.taps]
        assert max(rotations) < 0.5

    def test_mirror_symmetry(self):
        # reflecting start offsets and target across the push axis mirrors
        # the trajectory tap for tap (noise off)
        import dataclasses

        quiet = NoiseModel(enabled=False)
        rec_pos = run_trial(exp1_scenario(10.0, 15.0, seed=0, noise=quiet))
        mirrored = dataclasses.replace(
            exp1_scenario(-10.0, -15.0, seed=0, noise=quiet),
            target_pose=PlanarPose(-200.0, 400.0, 0.0),
        )
        rec_neg = run_trial(mirrored)
        assert rec_pos.outcome == "reached" and rec_neg.outcome == "reached"
        assert rec_pos.tap_total == rec_neg.tap_total
        # roundoff seeds sub-micrometre asymmetry through the contact
        # iterations; the mirrored trajectories must track within 0.01 mm/deg
        for tp, tn in zip(rec_pos.taps, rec_neg.taps):
            assert tp.pusher_pose[1] == pytest.approx(-tn.pusher_pose[1], abs=0.01)
            assert tp.pusher_pose[2] == pytest.approx(tn.pusher_pose[2], abs=0.01)
            assert tp.pusher_pose[3] == pytest.approx(-tn.pusher_pose[3], abs=0.01)
            assert tp.object_pose[0] == pytest.approx(-tn.object_pose[0], abs=0.01)
            assert tp.object_pose[1] == pytest.approx(tn.object_pose[1], abs=0.01)
        assert rec_pos.y_targ == pytest.approx(rec_neg.y_targ, abs=0.01)
