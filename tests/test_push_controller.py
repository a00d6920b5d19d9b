import dataclasses
import math
import sys

import numpy as np
import pytest

from tacpush import pose_math
from tacpush.exp_harness import exp1_scenario, run_trial
from tacpush.pose_math import (
    EulerPose,
    compose,
    euler_to_transform,
    inverse,
    normalize_angle_deg,
    transform_to_euler,
)
from tacpush.push_controller import (
    ControllerConfig,
    ControllerState,
    Status,
    _compose,
    _frame,
    alignment_pid_step,
    compose_command,
    control_step,
    pid_step,
    prediction_to_pose,
    servo_error,
    target_bearing,
)
from tacpush.push_dynamics import ContactMode, ContactState
from tacpush.scene import PlanarPose, builtin_shapes, heading_dir
from tacpush.tactile_sense import NoiseModel, PosePrediction, sense_contact

from se3_helpers import embed, matrix

IDENTITY = _frame(0.0, 0.0, 0.0)


def pose6(*vals):
    return euler_to_transform(EulerPose(*vals))


def contact_pred(z=2.0, alpha=0.0):
    return PosePrediction(True, z_depth=z, alpha=alpha)


class TestServoError:
    def test_zero_at_reference(self):
        ref = _frame(0, 2, 0)
        e = servo_error(ref, ref)
        assert e == pytest.approx(np.zeros(3), abs=1e-12)

    def test_over_deep_contact_commands_retreat(self):
        e = servo_error(_frame(0, 4, 0), _frame(0, 2, 0))
        assert e == pytest.approx([0, -2, 0], abs=1e-12)

    def test_pure_angle_error_is_pure_rotation(self):
        # equal depths: the error is a rotation about the tip centre with no
        # translation component (verified against the direct matrix product)
        pred = _frame(0, 2, 10)
        ref = _frame(0, 2, 0)
        direct = transform_to_euler(compose(inverse(embed(pred)), embed(ref)))
        e = servo_error(pred, ref)
        assert (0.0, *e, 0.0, 0.0) == dataclasses.astuple(direct)
        assert e[2] == pytest.approx(-10.0)
        assert np.allclose(e[:2], 0.0, atol=1e-12)

    def test_mixed_error_differs_from_vector_subtraction(self):
        pred = pose6(0, 0, 4, 10, 0, 0)
        ref = pose6(0, 0, 2, 0, 0, 0)
        e = servo_error(_frame(0, 4, 10), _frame(0, 2, 0))
        naive = np.array([0, -2, -10])
        # rotation channel agrees, translation picks up a rotated-frame term
        assert e[2] == pytest.approx(-10.0)
        assert abs(e[0] - naive[0]) > 0.1
        expected_y = float((inverse(pred).rotation @ (ref.translation - pred.translation))[1])
        assert e[0] == pytest.approx(expected_y)

    def test_prediction_frame(self):
        pred = PosePrediction(True, z_depth=3.0, alpha=-7.0)
        assert prediction_to_pose(pred) == _frame(0.0, 3.0, -7.0)


class TestPid:
    def test_zero_error_zero_output(self):
        out = pid_step(ControllerState(), (0.0,) * 3, ControllerConfig())
        assert out == pytest.approx(np.zeros(3))

    def test_default_gain_arithmetic(self):
        # fresh state, error (3, 1, 2): P 0.9 + I 0.1 on z/alpha, no y gain
        out = pid_step(ControllerState(), (3, 1, 2), ControllerConfig())
        assert out == pytest.approx([0, 1.0, 2.0])

    def test_constant_error_closed_form(self):
        cfg = ControllerConfig()
        state = ControllerState()
        e = (0, 1.0, 0)
        for n in range(1, 12):
            out = pid_step(state, e, cfg)
            expected = 0.9 * 1.0 + 0.1 * min(float(n), 5.0)
            assert out[1] == pytest.approx(expected)

    def test_integral_clipping_channelwise(self):
        # y and z clip in mm, alpha in degrees
        cfg = ControllerConfig()
        state = ControllerState()
        e = (-100.0, 100.0, -100.0)
        for _ in range(10):
            pid_step(state, e, cfg)
        assert state.integral == (-5.0, 5.0, -25.0)

    def test_derivative_acts_on_error_change(self):
        cfg = ControllerConfig(kp_servo=(0,) * 3, ki_servo=(0,) * 3,
                               kd_servo=(0, 1.0, 0))
        state = ControllerState()
        out1 = pid_step(state, (0, 2.0, 0), cfg)
        assert out1[1] == pytest.approx(2.0)
        out2 = pid_step(state, (0, 2.0, 0), cfg)
        assert out2[1] == pytest.approx(0.0)
        out3 = pid_step(state, (0, 0.5, 0), cfg)
        assert out3[1] == pytest.approx(-1.5)

    def test_each_channel_has_its_own_gains(self):
        cfg = ControllerConfig(kp_servo=(1.0, 2.0, 3.0), ki_servo=(0.5, 0.25, 0.125),
                               kd_servo=(4.0, 5.0, 6.0))
        state = ControllerState()
        assert pid_step(state, (1.0, 1.0, 1.0), cfg) == (5.5, 7.25, 9.125)
        assert state.integral == state.prev_error == (1.0, 1.0, 1.0)


class TestTargetBearing:
    def test_dead_ahead(self):
        theta, r = target_bearing(IDENTITY, IDENTITY, PlanarPose(0, 100))
        assert theta == pytest.approx(0.0)
        assert r == pytest.approx(100.0)

    def test_diagonal(self):
        theta, r = target_bearing(IDENTITY, IDENTITY, PlanarPose(100, 100))
        assert theta == pytest.approx(45.0)
        assert r == pytest.approx(math.hypot(100, 100))

    def test_behind(self):
        theta, _ = target_bearing(IDENTITY, IDENTITY, PlanarPose(1, -100))
        assert theta > 90.0
        theta, _ = target_bearing(IDENTITY, IDENTITY, PlanarPose(-1, -100))
        assert theta < -90.0

    def test_measured_in_correction_frame(self):
        # turning the correction frame by +30 deg puts a dead-ahead target
        # at bearing +30 in that frame
        correction = _frame(0, 0, 30)
        theta, _ = target_bearing(correction, IDENTITY, PlanarPose(0, 100))
        assert theta == pytest.approx(30.0)

    def test_pusher_frame_offset(self):
        pusher = _frame(50, 0, 0)
        theta, r = target_bearing(IDENTITY, pusher, PlanarPose(50, 80))
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
            pusher = _frame(*rng.uniform(-300, 300, size=2), float(rng.uniform(-180, 180)))
            cmd = compose_command(IDENTITY, 0.0, pusher)
            assert np.allclose(cmd, pusher, atol=1e-12)

    def test_lateral_move_along_sensor_y(self):
        cmd = compose_command(IDENTITY, 5.0, IDENTITY)
        assert np.allclose(cmd[2:], [5.0, 0.0])
        pusher = _frame(0, 0, 90)
        cmd = compose_command(IDENTITY, 5.0, pusher)
        assert np.allclose(cmd[2:], [0.0, 5.0], atol=1e-12)

    def test_lateral_move_in_corrected_frame(self):
        u = _frame(0, 0, 10)
        ordered = compose_command(u, 5.0, IDENTITY)
        reversed_product = _compose(_frame(5.0, 0, 0), u)
        assert not np.allclose(ordered, reversed_product)
        expected = _compose(u, _frame(5.0, 0, 0))
        assert np.allclose(ordered, expected)


class TestPlanarMatchesSE3:
    """The planar frames against pose_math's SE(3) chain, to within 1e-9 on
    any host; bit-identity is pinned by the goldens and the trial digest."""

    HEADINGS = (0.0, 90.0, -90.0, 180.0)

    @staticmethod
    def poses(rng, n):
        """Random (y, z, alpha) triples, with special headings and y = 0."""
        for k in range(n):
            y, z = rng.uniform(-300, 300, size=2)
            alpha = rng.uniform(-180, 180)
            if k % 3 == 0:
                alpha = TestPlanarMatchesSE3.HEADINGS[k // 3 % 4]
            if k % 5 == 0:
                y = 0.0
            yield float(y), float(z), float(alpha)

    @staticmethod
    def se3(y, z, alpha):
        return pose6(0.0, y, z, alpha, 0.0, 0.0)

    def test_frame_is_the_planar_block(self):
        for pose in self.poses(np.random.default_rng(1), 200):
            assert np.allclose(matrix(embed(_frame(*pose))), matrix(self.se3(*pose)),
                               rtol=0.0, atol=1e-9)

    def test_servo_error(self):
        rng = np.random.default_rng(2)
        for pose in self.poses(rng, 400):
            pred = (0.0, float(rng.uniform(1, 5)), float(rng.uniform(-20, 20)))
            got = servo_error(_frame(*pred), _frame(*pose))
            want = transform_to_euler(compose(inverse(self.se3(*pred)), self.se3(*pose)))
            diff = np.subtract((0.0, *got, 0.0, 0.0), dataclasses.astuple(want))
            diff[3:] = [normalize_angle_deg(d) for d in diff[3:]]
            assert np.abs(diff).max() <= 1e-9, (pred, pose)

    def test_target_bearing(self):
        rng = np.random.default_rng(3)
        for pusher, target, u in zip(*(self.poses(rng, 400) for _ in range(3))):
            u = (u[0] / 100.0, u[1] / 100.0, u[2])
            theta, r = target_bearing(_frame(*u), _frame(*pusher), PlanarPose(*target))
            p = transform_to_euler(compose(
                inverse(self.se3(*u)), compose(inverse(self.se3(*pusher)), self.se3(*target))
            ))
            assert abs(normalize_angle_deg(theta - math.degrees(math.atan2(p.y, p.z)))) <= 1e-9
            assert abs(r - math.hypot(p.y, p.z)) <= 1e-9

    def test_compose_command(self):
        rng = np.random.default_rng(4)
        for pusher, u in zip(*(self.poses(rng, 400) for _ in range(2))):
            u = (u[0] / 100.0, u[1] / 100.0, u[2])
            v = float(rng.uniform(-5, 5))
            got = compose_command(_frame(*u), v, _frame(*pusher))
            want = compose(self.se3(*pusher), compose(self.se3(*u), self.se3(v, 0.0, 0.0)))
            assert np.allclose(matrix(embed(got)), matrix(want), rtol=0.0, atol=1e-9)


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
                np.array([dec.command.y, dec.command.z]),
                np.array([pusher.y, pusher.z]) + [0.0, self.cfg.reacquire_advance],
            )
            assert np.isclose(dec.command.alpha, pusher.alpha)
        dec = control_step(missing, pusher, self.target, state, self.cfg)
        assert dec.status is Status.LOST_CONTACT

    def test_reacquire_creeps_along_the_last_contact_normal(self):
        # the reading of a contact whose inward normal heads at 20 degrees,
        # taken by a pusher heading at 35, has alpha 15; once contact is
        # lost, the creep follows that normal from wherever the pusher is
        normal = heading_dir(20.0)
        contact = ContactState((0.0, 0.0), normal, ContactMode.STICKING, 2.0)
        pred = sense_contact(contact, 35.0)
        assert pred.alpha == pytest.approx(15.0)
        state = ControllerState()
        control_step(pred, PlanarPose(0.0, 0.0, 35.0), self.target, state, self.cfg)
        pusher = PlanarPose(3.0, 4.0, -10.0)
        dec = control_step(PosePrediction(False), pusher, self.target, state, self.cfg)
        step = self.cfg.reacquire_advance
        assert dec.command.y == pytest.approx(pusher.y + step * normal[0], abs=1e-12)
        assert dec.command.z == pytest.approx(pusher.z + step * normal[1], abs=1e-12)
        assert dec.command.alpha == pytest.approx(pusher.alpha, abs=1e-12)

    def test_reacquire_holds_the_pusher_heading_exactly(self):
        # with no contact seen yet, the creep runs along the pusher's own
        # heading as given; a round trip through a controller frame would
        # round it to -169.70000000000002
        pusher = PlanarPose(0.0, 0.0, -169.7)
        dec = control_step(PosePrediction(False), pusher, self.target, ControllerState(), self.cfg)
        assert dec.command.alpha == -169.7
        ay, az = heading_dir(-169.7)
        step = self.cfg.reacquire_advance
        assert (dec.command.y, dec.command.z) == (step * ay, step * az)

    def test_over_deep_contact_retreats_along_the_sensor_axis(self):
        # 1 mm too deep, aligned, target dead ahead: the first tick's servo
        # correction is kp + ki = 1 mm back along the pusher's heading
        pusher = PlanarPose(10.0, -5.0, 30.0)
        ay, az = heading_dir(30.0)
        target = PlanarPose(pusher.y + 500.0 * ay, pusher.z + 500.0 * az)
        dec = control_step(contact_pred(z=3.0), pusher, target, ControllerState(), self.cfg)
        assert dec.error == pytest.approx((0.0, -1.0, 0.0), abs=1e-12)
        assert dec.theta == pytest.approx(0.0, abs=1e-9) and dec.v == pytest.approx(0.0)
        assert dec.command.y == pytest.approx(pusher.y - ay, abs=1e-12)
        assert dec.command.z == pytest.approx(pusher.z - az, abs=1e-12)
        assert dec.command.alpha == pytest.approx(pusher.alpha, abs=1e-12)

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
            assert np.all(np.abs(state.integral[:2]) <= 5.0 + 1e-12)
            assert abs(state.integral[2]) <= 25.0 + 1e-12


    def test_trial_makes_no_pose_math_call(self, monkeypatch):
        # wrap every binding of the SE(3) functions in the package, as
        # perfbench's tracer does
        calls = []
        for name in ("compose", "inverse", "euler_to_transform", "transform_to_euler"):
            original = getattr(pose_math, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "tacpush":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        rec = run_trial(exp1_scenario(10.0, 15.0, seed=1, max_taps=10))
        assert rec.tap_total == 10
        assert calls == []


class TestConfigValidation:
    def test_clip_ranges(self):
        with pytest.raises(ValueError):
            ControllerConfig(alignment_clip=(5.0, -5.0))

    @pytest.mark.parametrize("name", ["integral_clip_translation", "integral_clip_rotation",
                                      "alignment_clip"])
    @pytest.mark.parametrize("clip", [(1.0, 5.0), (-5.0, -1.0)])
    def test_clip_range_without_zero_rejected(self, name, clip):
        # clipping a zero error into (1, 5) gave a contact exactly at the
        # reference a constant servo push
        with pytest.raises(ValueError, match=f"ControllerConfig.{name} must contain 0"):
            ControllerConfig(**{name: clip})
        assert getattr(ControllerConfig(**{name: (0.0, 5.0)}), name) == (0.0, 5.0)

    def test_zone_ordering(self):
        with pytest.raises(ValueError):
            ControllerConfig(termination_radius=70.0)
        for radius in ("approach_zone_radius", "termination_radius"):
            with pytest.raises(ValueError, match=f"ControllerConfig.{radius} has a non-finite"):
                ControllerConfig(**{radius: math.nan})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"tap_forward": 0.0}, "ControllerConfig.tap_forward: must be > 0, got 0.0"),
         ({"tap_forward": math.nan}, "ControllerConfig.tap_forward has a non-finite value"),
         ({"tap_back": math.nan}, "ControllerConfig.tap_back has a non-finite value"),
         ({"reacquire_limit": 0}, "reacquire_limit"),
         ({"reacquire_limit": math.nan}, "reacquire_limit"),
         ({"reacquire_advance": math.nan}, "reacquire_advance has a non-finite value"),
         ({"kp_servo": (0.0, math.nan, 0.9)}, "kp_servo has a non-finite value"),
         ({"ki_servo": (0.0, 0.1, math.inf)}, "ki_servo has a non-finite value"),
         ({"kd_servo": (math.nan,) * 3}, "kd_servo has a non-finite value"),
         ({"kp_align": math.nan}, "kp_align has a non-finite value"),
         ({"ki_align": math.inf}, "ki_align has a non-finite value"),
         ({"kd_align": math.nan}, "kd_align has a non-finite value"),
         ({"theta_ref": -math.inf}, "theta_ref has a non-finite value"),
         ({"tap_forward": math.inf}, "ControllerConfig.tap_forward has a non-finite value"),
         ({"tap_back": math.inf}, "ControllerConfig.tap_back has a non-finite value"),
         ({"approach_zone_radius": math.inf},
          "ControllerConfig.approach_zone_radius has a non-finite value"),
         ({"termination_radius": math.inf},
          "ControllerConfig.termination_radius has a non-finite value"),
         ({"reacquire_limit": 2.5}, "reacquire_limit: expected a count, got 2.5"),
         ({"reacquire_limit": True}, "reacquire_limit: expected a count, got True"),
         # the config has no x, beta or gamma gain: a 6-entry diagonal is
         # refused whole (files give one, and the scenario reader reads it
         # down to (y, z, alpha))
         ({"kp_servo": (0.0, 0.0, 0.9, 0.9, 0.9, 0.0)}, "kp_servo: expected 3 values, got 6"),
         ({"ki_servo": (0.1, 0.0, 0.1, 0.1, 0.0, 0.0)}, "ki_servo: expected 3 values, got 6"),
         ({"kd_servo": (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)}, "kd_servo: expected 3 values, got 6")],
        ids=["tap_forward_zero", "tap_forward_nan", "tap_back_nan",
             "reacquire_limit_zero", "reacquire_limit_nan", "reacquire_advance_nan",
             "kp_servo_nan", "ki_servo_inf", "kd_servo_nan", "kp_align_nan",
             "ki_align_inf", "kd_align_nan", "theta_ref_-inf", "tap_forward_inf",
             "tap_back_inf", "approach_zone_radius_inf", "termination_radius_inf",
             "reacquire_limit_float", "reacquire_limit_bool", "kp_servo_beta",
             "ki_servo_x", "kd_servo_gamma"],
    )
    def test_tap_and_reacquire_limits(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ControllerConfig(**kwargs)

    def test_fields_cannot_be_set_past_the_check(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ControllerConfig().tap_forward = "abc"

    def test_gain_length(self):
        with pytest.raises(ValueError, match="ControllerConfig.kp_servo: expected 3 values, got 2"):
            ControllerConfig(kp_servo=(1.0, 2.0))


class TestClosedLoop:
    def test_symmetric_push_stays_straight(self):
        # centred perpendicular push, target dead ahead, noise off
        shape = builtin_shapes()["blue_square"]
        sc = exp1_scenario(0.0, 0.0, seed=0, max_taps=120)
        sc = type(sc)(
            name="straight",
            object=sc.object,
            object_start_pose=sc.object_start_pose,
            pusher_start_pose=sc.pusher_start_pose,
            target_pose=PlanarPose(0.0, 400.0, 0.0),
            controller=sc.controller,
            noise=NoiseModel(enabled=False),
            rng_seed=0,
            max_taps=150,
        )
        rec = run_trial(sc)
        assert rec.outcome == "reached"
        rotations = [abs(t.object_alpha_deg) for t in rec.taps]
        assert max(rotations) < 0.5

    def test_mirror_symmetry(self):
        # reflecting start offsets and target across the push axis mirrors
        # the trajectory tap for tap (noise off)
        import dataclasses

        quiet = NoiseModel(enabled=False)
        rec_pos = run_trial(dataclasses.replace(exp1_scenario(10.0, 15.0, seed=0), noise=quiet))
        mirrored = dataclasses.replace(
            exp1_scenario(-10.0, -15.0, seed=0),
            noise=quiet,
            target_pose=PlanarPose(-200.0, 400.0, 0.0),
        )
        rec_neg = run_trial(mirrored)
        assert rec_pos.outcome == "reached" and rec_neg.outcome == "reached"
        assert rec_pos.tap_total == rec_neg.tap_total
        # roundoff seeds sub-micrometre asymmetry through the contact
        # iterations; the mirrored trajectories must track within 0.01 mm/deg
        for tp, tn in zip(rec_pos.taps, rec_neg.taps):
            assert tp.pusher_y_mm == pytest.approx(-tn.pusher_y_mm, abs=0.01)
            assert tp.pusher_z_mm == pytest.approx(tn.pusher_z_mm, abs=0.01)
            assert tp.pusher_alpha_deg == pytest.approx(-tn.pusher_alpha_deg, abs=0.01)
            assert tp.object_y_mm == pytest.approx(-tn.object_y_mm, abs=0.01)
            assert tp.object_z_mm == pytest.approx(tn.object_z_mm, abs=0.01)
        assert rec_pos.y_targ == pytest.approx(rec_neg.y_targ, abs=0.01)
