"""Dual-loop push controller: tactile servoing plus target alignment.

Loop 1 (tactile servoing) drives the sensed contact pose towards a reference
pose with a 6-channel vector PID over the full SE(3) error
E = P_pred^-1 @ P_ref (matrix composition, not vector subtraction). Loop 2
(target alignment) computes the target bearing theta = atan2(y, z) in the
servo-corrected sensor frame and steers the pusher around the object
perimeter with a scalar PID whose output v is a lateral move along the
corrected frame's +y axis. The composite command sent to the robot is

    command = P_sensor @ U_servo @ Trans(0, v, 0),

an absolute pose; the robot then taps forward/back along the commanded
heading. Alignment disengages (v = 0, memory frozen) inside the target
approach zone, and the push terminates once the tip centre is within the
termination radius of the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .pose_math import (
    EulerPose,
    Transform,
    compose,
    euler_to_transform,
    inverse,
    normalize_angle_deg,
    transform_to_euler,
)
from .scene import PlanarPose, heading_dir
from .tactile_sense import PosePrediction

__all__ = [
    "ControlDecision",
    "ControllerConfig",
    "ControllerState",
    "Status",
    "alignment_pid_step",
    "compose_command",
    "control_step",
    "pid6_step",
    "prediction_to_pose",
    "servo_error",
    "target_bearing",
]


class Status(str, Enum):
    CONTINUE = "continue"
    TARGET_REACHED = "target_reached"
    LOST_CONTACT = "lost_contact"


@dataclass
class ControllerConfig:
    """Gains, reference pose, clips and zone radii for both control loops.

    Channel order for 6-vector gains and clips is (x, y, z, alpha, beta,
    gamma); translation integrals clip in mm, rotation integrals in degrees.
    The x, beta and gamma servo gains must be 0: on the plane those errors
    are always 0, so their gains cannot act.
    """

    ref_pose: PlanarPose = field(default_factory=lambda: PlanarPose(z=2.0))
    kp_servo: tuple = (0.0, 0.0, 0.9, 0.9, 0.0, 0.0)
    ki_servo: tuple = (0.0, 0.0, 0.1, 0.1, 0.0, 0.0)
    kd_servo: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    integral_clip_translation: tuple = (-5.0, 5.0)
    integral_clip_rotation: tuple = (-25.0, 25.0)
    kp_align: float = 0.2
    ki_align: float = 0.0
    kd_align: float = 0.5
    alignment_clip: tuple = (-5.0, 5.0)
    theta_ref: float = 0.0
    approach_zone_radius: float = 60.0
    termination_radius: float = 20.0
    tap_forward: float = 10.0
    tap_back: float = 5.0
    reacquire_limit: int = 5
    reacquire_advance: float = 2.0

    def __post_init__(self):
        for name in ("kp_servo", "ki_servo", "kd_servo"):
            v = tuple(float(x) for x in getattr(self, name))
            if len(v) != 6:
                raise ValueError(f"ControllerConfig.{name} must have 6 entries")
            if not all(math.isfinite(x) for x in v):
                raise ValueError(f"ControllerConfig.{name} must be finite")
            for i, channel in ((0, "x"), (4, "beta"), (5, "gamma")):
                if v[i] != 0.0:
                    raise ValueError(
                        f"ControllerConfig.{name}: the {channel} gain must be 0 "
                        f"on the plane, got {v[i]!r}"
                    )
            setattr(self, name, v)
        for name in ("kp_align", "ki_align", "kd_align", "theta_ref", "reacquire_advance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"ControllerConfig.{name} must be finite")
        for name in (
            "integral_clip_translation",
            "integral_clip_rotation",
            "alignment_clip",
        ):
            lo, hi = (float(x) for x in getattr(self, name))
            if not lo < hi:
                raise ValueError(f"ControllerConfig.{name} must be a nonempty range")
            setattr(self, name, (lo, hi))
        # written so that NaN fails each check
        for name in ("approach_zone_radius", "termination_radius"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"ControllerConfig zone radii invalid: {name} must be finite and > 0"
                )
        if not self.termination_radius < self.approach_zone_radius:
            raise ValueError(
                "ControllerConfig.termination_radius must be smaller than "
                "approach_zone_radius"
            )
        if not 0 < self.tap_forward < math.inf:
            raise ValueError(
                "ControllerConfig tap lengths invalid: tap_forward must be finite and > 0"
            )
        if not 0 <= self.tap_back < math.inf:
            raise ValueError(
                "ControllerConfig tap lengths invalid: tap_back must be finite and >= 0"
            )
        limit = self.reacquire_limit
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
            raise ValueError(
                f"ControllerConfig.reacquire_limit must be an integer >= 1, got {limit!r}"
            )


@dataclass
class ControllerState:
    """Per-trial mutable memory of both PID loops."""

    integral6: np.ndarray = field(default_factory=lambda: np.zeros(6))
    prev_error6: np.ndarray = field(default_factory=lambda: np.zeros(6))
    integral_theta: float = 0.0
    prev_epsilon: float = 0.0
    no_contact_streak: int = 0
    last_normal_heading: float | None = None


@dataclass
class ControlDecision:
    """Outcome of one control step plus diagnostics for logging."""

    status: Status
    command: PlanarPose | None = None
    theta: float | None = None
    r: float | None = None
    v: float = 0.0
    error6: np.ndarray | None = None
    integral6: np.ndarray | None = None


def prediction_to_pose(pred: PosePrediction) -> Transform:
    """Transform of the sensor frame relative to the contact feature frame."""
    if not pred.in_contact:
        raise ValueError("prediction_to_pose: prediction has no contact")
    return euler_to_transform(EulerPose(0.0, 0.0, pred.z_depth, pred.alpha, 0.0, 0.0))


def servo_error(pred_pose: Transform, ref_pose: Transform) -> EulerPose:
    """SE(3) servo error between the sensed and reference sensor poses.

    Full matrix composition E = P_pred^-1 @ P_ref; this differs from naive
    vector subtraction whenever rotation and translation errors mix.
    """
    return transform_to_euler(compose(inverse(pred_pose), ref_pose))


def pid6_step(
    state: ControllerState,
    error6: EulerPose,
    cfg: ControllerConfig,
) -> EulerPose:
    """One tick of the 6-channel servo PID (one tick = one tap).

    The integral is accumulated first and clipped channelwise (translation
    channels to the mm clip, rotation channels to the degree clip); the
    derivative acts on the error with prev_error starting at zero.
    """
    e = error6.as_array()
    state.integral6 = state.integral6 + e
    lo_t, hi_t = cfg.integral_clip_translation
    lo_r, hi_r = cfg.integral_clip_rotation
    state.integral6[:3] = np.clip(state.integral6[:3], lo_t, hi_t)
    state.integral6[3:] = np.clip(state.integral6[3:], lo_r, hi_r)
    deriv = e - state.prev_error6
    u = (
        np.asarray(cfg.kp_servo) * e
        + np.asarray(cfg.ki_servo) * state.integral6
        + np.asarray(cfg.kd_servo) * deriv
    )
    state.prev_error6 = e
    return EulerPose.from_array(u)


def target_bearing(
    u_correction: Transform, pusher_pose: Transform, target_pose: Transform
):
    """Bearing (degrees) and in-plane range (mm) of the target, measured in
    the servo-corrected sensor frame."""
    p = transform_to_euler(
        compose(inverse(u_correction), compose(inverse(pusher_pose), target_pose))
    )
    theta = math.degrees(math.atan2(p.y, p.z))
    r = math.hypot(p.y, p.z)
    return theta, r


def alignment_pid_step(
    state: ControllerState, theta: float, cfg: ControllerConfig
) -> float:
    """One tick of the scalar target-alignment PID (one tick = one tap);
    output clipped to +/-5 mm."""
    eps = normalize_angle_deg(cfg.theta_ref - theta)
    state.integral_theta += eps
    deriv = eps - state.prev_epsilon
    v = cfg.kp_align * eps + cfg.ki_align * state.integral_theta + cfg.kd_align * deriv
    state.prev_epsilon = eps
    lo, hi = cfg.alignment_clip
    return float(min(max(v, lo), hi))


def compose_command(u_servo: Transform, v: float, pusher_pose: Transform) -> Transform:
    """Absolute commanded pose: servo correction then the lateral alignment
    move, both chained off the current sensor pose."""
    lateral = euler_to_transform(EulerPose(0.0, v, 0.0, 0.0, 0.0, 0.0))
    return compose(pusher_pose, compose(u_servo, lateral))


def control_step(
    pred: PosePrediction,
    pusher: PlanarPose,
    target: PlanarPose,
    state: ControllerState,
    cfg: ControllerConfig,
) -> ControlDecision:
    """Run one full control tick and produce the next commanded pose.

    Order: termination check (tip centre within the termination radius of
    the target) -> contact reacquisition on a no-contact reading -> servo
    PID -> target bearing -> alignment PID (only outside the approach zone)
    -> composite command, returned as a planar pose. Faults are reported as
    statuses, never raised.
    """
    if np.hypot(target.y - pusher.y, target.z - pusher.z) < cfg.termination_radius:
        return ControlDecision(Status.TARGET_REACHED)

    pusher_t = pusher.to_transform()
    # the goldens were recorded with this SE(3) read-back (1 ulp off on 4% of headings)
    pusher = PlanarPose.from_transform(pusher_t)

    if not pred.in_contact:
        state.no_contact_streak += 1
        if state.no_contact_streak > cfg.reacquire_limit:
            return ControlDecision(Status.LOST_CONTACT)
        # hold the previous corrections; creep towards the last known contact
        heading = (
            state.last_normal_heading
            if state.last_normal_heading is not None
            else pusher.alpha
        )
        step = cfg.reacquire_advance * heading_dir(heading)
        return ControlDecision(
            Status.CONTINUE,
            command=PlanarPose(pusher.y + step[0], pusher.z + step[1], pusher.alpha),
            integral6=state.integral6.copy(),
        )

    state.no_contact_streak = 0
    state.last_normal_heading = normalize_angle_deg(pusher.alpha - pred.alpha)

    error6 = servo_error(prediction_to_pose(pred), cfg.ref_pose.to_transform())
    u6 = pid6_step(state, error6, cfg)
    u_servo = euler_to_transform(u6)
    theta, r = target_bearing(u_servo, pusher_t, target.to_transform())
    v = alignment_pid_step(state, theta, cfg) if r > cfg.approach_zone_radius else 0.0
    return ControlDecision(
        Status.CONTINUE,
        command=PlanarPose.from_transform(compose_command(u_servo, v, pusher_t)),
        theta=theta,
        r=r,
        v=v,
        error6=error6.as_array(),
        integral6=state.integral6.copy(),
    )
