"""Dual-loop push controller: tactile servoing plus target alignment.

Loop 1 (tactile servoing) drives the sensed contact pose towards a reference
pose with a 3-channel vector PID over the pose error
E = P_pred^-1 @ P_ref (frame composition, not vector subtraction). Loop 2
(target alignment) computes the target bearing theta = atan2(y, z) in the
servo-corrected sensor frame and steers the pusher around the object
perimeter with a scalar PID whose output v is a lateral move along the
corrected frame's +y axis. The composite command sent to the robot is

    command = P_sensor @ U_servo @ Trans(0, v, 0),

an absolute pose; the robot then taps forward/back along the commanded
heading. Alignment disengages (v = 0, memory frozen) inside the target
approach zone, and the push terminates once the tip centre is within the
termination radius of the target.

Every pose lies in the plane, so these are planar rigid motions, and they
run on Python floats as planar frames (see _frame), so a trial's results do
not depend on the host's BLAS. The servo PID runs on the plane's three
channels (y, z, alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .scene import PlanarPose, heading_dir, normalize_angle_deg
from .tactile_sense import PosePrediction

__all__ = [
    "ControlDecision",
    "ControllerConfig",
    "ControllerState",
    "Status",
    "alignment_pid_step",
    "compose_command",
    "control_step",
    "pid_step",
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

    Channel order for the servo gains is (y, z, alpha); translation
    integrals clip in mm, rotation integrals in degrees.
    """

    ref_pose: PlanarPose = field(default_factory=lambda: PlanarPose(z=2.0))
    kp_servo: tuple = (0.0, 0.9, 0.9)
    ki_servo: tuple = (0.0, 0.1, 0.1)
    kd_servo: tuple = (0.0, 0.0, 0.0)
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
            if len(v) != 3:
                raise ValueError(f"ControllerConfig.{name} must have 3 entries (y, z, alpha)")
            if not all(math.isfinite(x) for x in v):
                raise ValueError(f"ControllerConfig.{name} must be finite")
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
            # a range without 0 would clip a zero error to a constant push
            if not lo <= 0.0 <= hi:
                raise ValueError(f"ControllerConfig.{name} must contain 0, got ({lo}, {hi})")
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

    integral: tuple = (0.0, 0.0, 0.0)
    prev_error: tuple = (0.0, 0.0, 0.0)
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
    error: tuple | None = None
    integral: tuple | None = None


# A planar frame is a tuple (c, s, y, z): the cosine and sine of the heading of
# the pose (0, y, z, alpha, 0, 0), then its origin (y, z).

def _frame(y: float, z: float, alpha: float) -> tuple:
    """Frame of the planar pose (y, z, alpha), alpha in degrees."""
    a = math.radians(alpha)
    return (math.cos(a), math.sin(a), y, z)


def _apply(f: tuple, y: float, z: float) -> tuple:
    """The point (y, z) of frame f, in f's parent frame."""
    c, s, ty, tz = f
    return c * y - s * z + ty, s * y + c * z + tz


def _compose(a: tuple, b: tuple) -> tuple:
    """Frame b chained after frame a (a @ b)."""
    c, s = a[:2]
    bc, bs, by, bz = b
    return (c * bc - s * bs, s * bc + c * bs, *_apply(a, by, bz))


def _inverse(f: tuple) -> tuple:
    """Inverse frame: heading negated, translation -R^T t."""
    c, s, y, z = f
    return (c, -s, -(c * y + s * z), -(c * z - s * y))


def _pose(f: tuple) -> PlanarPose:
    """Planar pose of a frame."""
    c, s, y, z = f
    return PlanarPose(y, z, math.degrees(math.atan2(s, c)))


def prediction_to_pose(pred: PosePrediction) -> tuple:
    """Frame of the sensor relative to the contact feature frame."""
    if not pred.in_contact:
        raise ValueError("prediction_to_pose: prediction has no contact")
    return _frame(0.0, pred.z_depth, pred.alpha)


def servo_error(pred_pose: tuple, ref_pose: tuple) -> tuple:
    """Servo error (y, z, alpha) between the sensed and reference sensor
    frames.

    Frame composition E = P_pred^-1 @ P_ref; this differs from naive vector
    subtraction whenever rotation and translation errors mix.
    """
    c, s, y, z = _compose(_inverse(pred_pose), ref_pose)
    return y, z, normalize_angle_deg(math.degrees(math.atan2(s, c)))


def pid_step(state: ControllerState, error: tuple, cfg: ControllerConfig) -> tuple:
    """One tick of the (y, z, alpha) servo PID (one tick = one tap).

    The integral is accumulated first and clipped channelwise (y and z to
    the mm clip, alpha to the degree clip); the derivative acts on the error
    with prev_error starting at zero.
    """
    ey, ez, ea = error
    iy, iz, ia = state.integral
    (tlo, thi), (rlo, rhi) = cfg.integral_clip_translation, cfg.integral_clip_rotation
    iy = min(max(iy + ey, tlo), thi)
    iz = min(max(iz + ez, tlo), thi)
    ia = min(max(ia + ea, rlo), rhi)
    state.integral = iy, iz, ia
    py, pz, pa = state.prev_error
    state.prev_error = ey, ez, ea
    (kpy, kpz, kpa), (kiy, kiz, kia), (kdy, kdz, kda) = cfg.kp_servo, cfg.ki_servo, cfg.kd_servo
    return (kpy * ey + kiy * iy + kdy * (ey - py),
            kpz * ez + kiz * iz + kdz * (ez - pz),
            kpa * ea + kia * ia + kda * (ea - pa))


def target_bearing(u_correction: tuple, pusher_pose: tuple, target: PlanarPose):
    """Bearing (degrees) and in-plane range (mm) of the target, measured in
    the servo-corrected sensor frame."""
    y, z = _apply(
        _inverse(u_correction), *_apply(_inverse(pusher_pose), target.y, target.z)
    )
    return math.degrees(math.atan2(y, z)), math.hypot(y, z)


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


def compose_command(u_servo: tuple, v: float, pusher_pose: tuple) -> tuple:
    """Absolute commanded frame: servo correction then the lateral alignment
    move, both chained off the current sensor frame."""
    return _compose(pusher_pose, _compose(u_servo, _frame(v, 0.0, 0.0)))


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
    if math.hypot(target.y - pusher.y, target.z - pusher.z) < cfg.termination_radius:
        return ControlDecision(Status.TARGET_REACHED)

    pusher_f = _frame(pusher.y, pusher.z, pusher.alpha)

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
        ay, az = heading_dir(heading)
        step = cfg.reacquire_advance
        return ControlDecision(
            Status.CONTINUE,
            command=PlanarPose(pusher.y + step * ay, pusher.z + step * az, pusher.alpha),
            integral=state.integral,
        )

    state.no_contact_streak = 0
    state.last_normal_heading = normalize_angle_deg(pusher.alpha - pred.alpha)

    ref = cfg.ref_pose
    error = servo_error(prediction_to_pose(pred), _frame(ref.y, ref.z, ref.alpha))
    u_servo = _frame(*pid_step(state, error, cfg))
    theta, r = target_bearing(u_servo, pusher_f, target)
    v = alignment_pid_step(state, theta, cfg) if r > cfg.approach_zone_radius else 0.0
    return ControlDecision(
        Status.CONTINUE,
        command=_pose(compose_command(u_servo, v, pusher_f)),
        theta=theta,
        r=r,
        v=v,
        error=error,
        integral=state.integral,
    )
