"""SE(3) rigid transforms and their six-component Euler-vector parameterization.

Conventions used across the package:
  * translations are millimetres, angles at API boundaries are degrees;
  * Euler vectors (x, y, z, alpha, beta, gamma) use the extrinsic-xyz
    convention, R = Rz(gamma) @ Ry(beta) @ Rx(alpha) about fixed axes;
  * angles are normalized to the half-open interval (-180, 180];
  * at gimbal lock (|beta| = 90 deg) the gamma = 0 branch is returned.

Everything here is pure value semantics and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EulerPose",
    "Transform",
    "compose",
    "euler_to_transform",
    "inverse",
    "normalize_angle_deg",
    "transform_to_euler",
]

# cos(beta) below this selects the gimbal-lock extraction branch.
_GIMBAL_TOL = 1e-9


def normalize_angle_deg(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    r = math.fmod(angle + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


@dataclass(frozen=True)
class EulerPose:
    """Pose as (x, y, z) mm translation plus extrinsic-xyz Euler angles in degrees."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


@dataclass
class Transform:
    """Rigid transform: 3x3 rotation (orthonormal, det +1) and 3-vector translation (mm).

    A transform T_ab maps points from frame b to frame a:
    p_a = R_ab @ p_b + t_ab. Instances are treated as immutable.
    """

    rotation: np.ndarray
    translation: np.ndarray


def compose(a: Transform, b: Transform) -> Transform:
    """Chain two transforms: the result applies b first, then a (T_ac = T_ab @ T_bc).

    The rotation product is not re-projected onto SO(3); the controller
    composes at most three transforms deep, each built fresh from a pose.
    """
    return Transform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(t: Transform) -> Transform:
    """Inverse transform: rotation transposed, translation -R^T p."""
    rt = t.rotation.T
    return Transform(rt.copy(), -(rt @ t.translation))


def euler_to_transform(e: EulerPose) -> Transform:
    """Build the transform for an Euler vector (extrinsic-xyz: Rz(g) Ry(b) Rx(a))."""
    a = math.radians(e.alpha)
    b = math.radians(e.beta)
    g = math.radians(e.gamma)
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cg, sg = math.cos(g), math.sin(g)
    rotation = np.array(
        [
            [cg * cb, cg * sb * sa - sg * ca, cg * sb * ca + sg * sa],
            [sg * cb, sg * sb * sa + cg * ca, sg * sb * ca - cg * sa],
            [-sb, cb * sa, cb * ca],
        ]
    )
    return Transform(rotation, np.array([e.x, e.y, e.z], dtype=float))


def transform_to_euler(t: Transform) -> EulerPose:
    """Extract the extrinsic-xyz Euler vector of a transform.

    At gimbal lock (|beta| = 90 deg, i.e. cos(beta) ~ 0) alpha and gamma are
    degenerate; the gamma = 0 branch is chosen so the result is unique and
    still reproduces the input transform exactly.
    """
    r = t.rotation
    sb = -float(r[2, 0])
    cb = math.hypot(float(r[2, 1]), float(r[2, 2]))
    beta = math.atan2(sb, cb)
    if cb > _GIMBAL_TOL:
        alpha = math.atan2(float(r[2, 1]), float(r[2, 2]))
        gamma = math.atan2(float(r[1, 0]), float(r[0, 0]))
    else:
        gamma = 0.0
        if sb > 0.0:
            alpha = math.atan2(float(r[0, 1]), float(r[1, 1]))
        else:
            alpha = math.atan2(-float(r[0, 1]), float(r[1, 1]))
    tx, ty, tz = (float(v) for v in t.translation)
    return EulerPose(
        tx,
        ty,
        tz,
        normalize_angle_deg(math.degrees(alpha)),
        normalize_angle_deg(math.degrees(beta)),
        normalize_angle_deg(math.degrees(gamma)),
    )
