"""Quasi-static single-point pushing physics.

Support friction follows the ellipsoid limit-surface model: for a planar
wrench (fy, fz, m) about the centre of friction, the object twist is
proportional to the gradient of

    H(f) = (fy / f_max)^2 + (fz / f_max)^2 + (m / m_max)^2,

i.e. (vy, vz, omega) ~ (fy / f_max^2, fz / f_max^2, m / m_max^2). Writing
a = 1/f_max^2, b = 1/m_max^2, r = contact point - CoF and p = perp(r), the
velocity of the contact point under a contact force f is

    v_c = a f + b (p . f) p = M f,    M = a I + b p p^T  (SPD),

so the motion cone at the contact is the image of the Coulomb friction cone
under M. A pusher displacement inside the motion cone sticks (f = M^-1 d);
outside it the force pins to the nearer friction-cone edge and the contact
slides along that edge's velocity image. Contact is unilateral: the object
only moves while the pusher disc overlaps it, and overlap is resolved each
substep to within PENETRATION_TOL_MM by advancing the object along the
resolved twist. Motion is velocity-level and scale invariant; only twist
directions are physical. ContactMatrix is the one implementation of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    cross2,
    heading_dir,
    normalize_angle_deg,
    perp2,
)

__all__ = [
    "ContactMatrix",
    "ContactMode",
    "ContactState",
    "PhysicsFault",
    "MAX_RESOLVE_ITERS",
    "PENETRATION_TOL_MM",
    "SUBSTEP_CAP_MM",
    "contact_at",
    "resolve_substep",
    "simulate_tap",
]

SUBSTEP_CAP_MM = 0.5
PENETRATION_TOL_MM = 0.01
# resolution drives overlap into (0, PENETRATION_TOL_MM]; keeping it strictly
# positive preserves a valid contact reading at the end of a pushing substep
_RESOLVE_RESIDUAL_MM = 0.5 * PENETRATION_TOL_MM
MAX_RESOLVE_ITERS = 50


class PhysicsFault(RuntimeError):
    """Penetration resolution failed to converge; aborts the running trial."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ContactMode(str, Enum):
    SEPARATED = "separated"
    STICKING = "sticking"
    SLIDING_LEFT = "sliding_left"
    SLIDING_RIGHT = "sliding_right"


@dataclass
class ContactState:
    """Contact bookkeeping for one substep.

    `point` is the contact point in the work frame, `normal` the unit push
    direction into the object. "left" for sliding modes is the +90 degree
    (counter-clockwise) side of the push normal.
    """

    point: np.ndarray
    normal: np.ndarray
    mode: ContactMode
    penetration: float


def _cof_world(shape: ObjectShape, pose: PlanarPose) -> np.ndarray:
    return pose.transform_point(shape.cof_offset)


def _rotated(v: np.ndarray, rad: float) -> np.ndarray:
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


class ContactMatrix:
    """The contact matrix M = a I + b p p^T of one contact (a, b > 0).

    a = 1 / f_max^2, b = 1 / m_max^2 and p = perp(contact point - CoF), so
    the moment of a contact force f about the CoF is p . f, the limit surface
    gives the object the twist (a f, b p . f), and the contact point moves
    with velocity M f.
    """

    __slots__ = ("a", "b", "p")

    def __init__(self, a: float, b: float, p: np.ndarray):
        self.a = a
        self.b = b
        self.p = p

    @classmethod
    def at(cls, shape: ObjectShape, object_pose: PlanarPose, point) -> "ContactMatrix":
        """Contact matrix of `shape` at `object_pose` for a work-frame contact point."""
        return cls(
            1.0 / shape.f_max**2,
            1.0 / shape.m_max**2,
            perp2(np.asarray(point, dtype=float) - _cof_world(shape, object_pose)),
        )

    def apply(self, f) -> np.ndarray:
        """Contact-point velocity v_c = M f."""
        a, b, p = self.a, self.b, self.p
        return a * np.asarray(f, dtype=float) + b * float(p[0] * f[0] + p[1] * f[1]) * p

    def solve(self, v) -> np.ndarray:
        """f = M^-1 v via the rank-one (Sherman-Morrison) form of M."""
        a, b, p = self.a, self.b, self.p
        pp = float(p[0] * p[0] + p[1] * p[1])
        pv = float(p[0] * v[0] + p[1] * v[1])
        return (np.asarray(v, dtype=float) - (b * pv / (a + b * pp)) * p) / a

    def twist(self, f, s: float = 1.0):
        """Object twist s * (a f, b p . f) for the contact force f: the CoF
        displacement (mm) and the spin about the CoF (rad)."""
        return s * self.a * f, s * self.b * float(self.p @ f)

    def edge_images(self, n_in, mu: float):
        """Friction-cone edge forces and their unnormalised velocity images.

        Returns (f_l, f_r, u_l, u_r): the left (+) and right (-) edges of the
        Coulomb cone about the inward normal and u = M f of each, the
        motion-cone edges.
        """
        phi = math.atan(mu)
        f_l = _rotated(n_in, phi)
        f_r = _rotated(n_in, -phi)
        return f_l, f_r, self.apply(f_l), self.apply(f_r)

    def resolve(self, v_p, n_in, mu: float):
        """Contact force direction and mode for a pusher drive direction v_p.

        Sticking if v_p lies inside the motion cone (force = M^-1 v_p,
        interior to the friction cone); otherwise the force pins to the
        friction-cone edge on v_p's side and the contact slides.
        """
        f_l, f_r, u_l, u_r = self.edge_images(n_in, mu)
        beyond_l = cross2(u_l, v_p) > 0.0
        beyond_r = cross2(u_r, v_p) < 0.0
        if mu == 0.0:
            side = cross2(u_l, v_p)
            if abs(side) < 1e-12:
                return np.asarray(n_in, dtype=float), ContactMode.STICKING
            mode = ContactMode.SLIDING_LEFT if side > 0.0 else ContactMode.SLIDING_RIGHT
            return np.asarray(n_in, dtype=float), mode
        if beyond_l and beyond_r:
            # reflex corner: v_p opposes the cone; pick the side it is closer to
            mid = u_l + u_r
            if cross2(mid, v_p) > 0.0:
                return f_l, ContactMode.SLIDING_LEFT
            return f_r, ContactMode.SLIDING_RIGHT
        if beyond_l:
            return f_l, ContactMode.SLIDING_LEFT
        if beyond_r:
            return f_r, ContactMode.SLIDING_RIGHT
        return self.solve(v_p), ContactMode.STICKING


def _advance_pose(
    pose: PlanarPose, cof: np.ndarray, dpos: np.ndarray, dalpha_rad: float
) -> PlanarPose:
    """Rigidly displace the object: CoF translates by dpos, spin about the CoF."""
    new_origin = cof + dpos + _rotated(pose.position - cof, dalpha_rad)
    return PlanarPose(
        float(new_origin[0]),
        float(new_origin[1]),
        pose.alpha + math.degrees(dalpha_rad),
    )


def contact_at(shape: ObjectShape, object_pose: PlanarPose, tip) -> ContactState:
    """Contact of the tip disc centred at work-frame point `tip`: penetration is
    the disc-object overlap; SEPARATED without overlap, else STICKING (at rest)."""
    sd, point, n_out, _ = boundary_probe(shape, object_pose, tip)
    pen = TIP_RADIUS_MM - sd
    mode = ContactMode.SEPARATED if pen <= 0.0 else ContactMode.STICKING
    return ContactState(point, -n_out, mode, pen)


def resolve_substep(shape: ObjectShape, object_pose: PlanarPose, tip, pusher_disp):
    """Advance one pusher substep and resolve any disc-object overlap.

    The pusher disc centre moves from `tip` by `pusher_disp` (capped at
    SUBSTEP_CAP_MM). If the displaced disc overlaps the object, the object
    pose is advanced along the quasi-static twist until the residual overlap
    is at most PENETRATION_TOL_MM. Returns (new object pose, ContactState);
    the caller owns the pusher pose update.
    """
    disp = np.asarray(pusher_disp, dtype=float)
    disp_norm = float(np.hypot(disp[0], disp[1]))
    if disp_norm > SUBSTEP_CAP_MM + 1e-9:
        raise ValueError(
            f"resolve_substep: displacement {disp_norm:.3f} mm exceeds the "
            f"{SUBSTEP_CAP_MM} mm substep cap"
        )
    tip_new = np.asarray(tip, dtype=float) + disp
    pose = object_pose
    a = 1.0 / shape.f_max**2
    b = 1.0 / shape.m_max**2

    c = contact_at(shape, pose, tip_new)
    if c.mode is ContactMode.SEPARATED:
        return pose, c

    mode = None
    for _ in range(MAX_RESOLVE_ITERS):
        n_in = c.normal
        if c.penetration <= PENETRATION_TOL_MM:
            break
        cof = _cof_world(shape, pose)
        m = ContactMatrix(a, b, perp2(c.point - cof))
        if disp_norm > 1e-12 and float(disp @ n_in) > 1e-12:
            v_p = disp
        else:
            # stale overlap with no approaching drive: expel along the normal
            v_p = n_in
        f, step_mode = m.resolve(v_p, n_in, shape.mu_contact)
        u = m.apply(f)
        rate = float(u @ n_in)
        if rate <= 1e-12:
            # edge twist cannot reduce overlap; fall back to a pure normal push
            f = n_in
            u = m.apply(f)
            rate = float(u @ n_in)
        if mode is None:
            mode = step_mode
        dpos, dspin = m.twist(f, (c.penetration - _RESOLVE_RESIDUAL_MM) / rate)
        pose = _advance_pose(pose, cof, dpos, dspin)
        c = contact_at(shape, pose, tip_new)
    else:
        raise PhysicsFault(
            "penetration resolution did not converge",
            {
                "tip": [float(tip_new[0]), float(tip_new[1])],
                "object_pose": (pose.y, pose.z, pose.alpha),
                "penetration": c.penetration,
            },
        )

    if mode is None:
        # grazing contact (overlap within tolerance): classify without moving
        if disp_norm > 1e-12:
            _, mode = ContactMatrix.at(shape, pose, c.point).resolve(
                disp, c.normal, shape.mu_contact
            )
        else:
            mode = ContactMode.STICKING
    return pose, ContactState(c.point, c.normal, mode, c.penetration)


def simulate_tap(
    world: WorldState,
    shape: ObjectShape,
    commanded_pose: PlanarPose,
    tap_forward: float = 10.0,
    tap_back: float = 5.0,
    substep: float = SUBSTEP_CAP_MM,
):
    """Execute one tap: relocate to the commanded pose, advance, retract.

    The pusher moves to `commanded_pose` along a straight in-plane path with
    physics active (relocation can incidentally push the object), advances
    `tap_forward` mm along the commanded heading's forward axis and retracts
    `tap_back` mm. Every leg is substepped through resolve_substep, except
    substeps that the last separated probe proves cannot reach the object
    (conservative advancement); positions and results are as if every
    substep ran.

    Returns (world, sense_heading, contact): the WorldState after the
    retraction, and the pusher heading (deg, wrapped) and ContactState at
    the end of the advance, which is where the tactile reading is taken
    (the retraction reopens the contact gap, so the deepest point is the
    only configuration reliably in contact).
    """
    cmd = commanded_pose
    obj = world.object_pose
    pos = world.pusher_pose.position
    alpha = world.pusher_pose.alpha
    contact = None

    def run_leg(target_pos: np.ndarray, target_alpha: float):
        nonlocal obj, pos, alpha, contact
        delta = target_pos - pos
        dist = float(np.hypot(delta[0], delta[1]))
        dalpha = normalize_angle_deg(target_alpha - alpha)
        if dist < 1e-12 and abs(dalpha) < 1e-12:
            return
        n = max(1, math.ceil(dist / substep))
        step = dist / n
        p_from = pos.copy()
        i = 0
        while i < n:
            i += 1
            p_next = p_from + delta * (i / n)
            obj, contact = resolve_substep(shape, obj, pos, p_next - pos)
            if contact.mode is ContactMode.SEPARATED and i < n:
                # conservative advancement: the signed distance is 1-Lipschitz,
                # so the substeps within the gap less the tolerance stay
                # separated and leave the object where it is; skip them, but
                # probe the leg's last substep, whose contact the tap reports
                free = math.floor((-contact.penetration - PENETRATION_TOL_MM) / step)
                if free > 0:
                    i = min(i + free, n - 1)
                    p_next = p_from + delta * (i / n)
            pos = p_next
        alpha += dalpha

    run_leg(cmd.position, cmd.alpha)
    axis = heading_dir(cmd.alpha)
    run_leg(cmd.position + tap_forward * axis, cmd.alpha)
    sense_heading = normalize_angle_deg(alpha)
    advance_contact = contact
    run_leg(cmd.position + (tap_forward - tap_back) * axis, cmd.alpha)
    end_pose = PlanarPose(float(pos[0]), float(pos[1]), alpha)
    return WorldState(obj, end_pose), sense_heading, advance_contact
