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
from enum import Enum

import numpy as np

from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    _fma,
    boundary_probe,
    cross2,
    heading_dir,
    normalize_angle_deg,
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


class ContactState:
    """Contact bookkeeping for one substep.

    `point` is the contact point in the work frame, `normal` the unit push
    direction into the object. "left" for sliding modes is the +90 degree
    (counter-clockwise) side of the push normal. A contact that contact_at
    built reads both vectors from its probe on first use (scene.ProbeResult),
    so a contact whose vectors nobody reads never rotates them.
    """

    __slots__ = ("mode", "penetration", "_point", "_normal", "_probe")

    def __init__(self, point, normal, mode: ContactMode, penetration: float):
        self._point = point
        self._normal = normal
        self.mode = mode
        self.penetration = penetration

    @property
    def point(self) -> tuple[float, float]:
        if self._point is None:
            self._point = self._probe.point
        return self._point

    @property
    def normal(self) -> tuple[float, float]:
        if self._normal is None:
            ny, nz = self._probe.normal
            self._normal = (-ny, -nz)
        return self._normal

    def __repr__(self) -> str:
        return (f"ContactState(point={self.point!r}, normal={self.normal!r}, "
                f"mode={self.mode!r}, penetration={self.penetration!r})")


def _rotated(v, c: float, s: float) -> tuple[float, float]:
    """v rotated by the angle with cosine c and sine s."""
    return c * v[0] - s * v[1], s * v[0] + c * v[1]


# (cos phi, sin phi, cos -phi, sin -phi) of each friction cone's half-angle
# phi = atan(mu), by mu. Zero is not cached: +0.0 and -0.0 are one key but
# give cones whose sines differ in sign.
_CONES: dict = {}


def _friction_cone(mu: float) -> tuple[float, float, float, float]:
    cone = _CONES.get(mu)
    if cone is None:
        phi = math.atan(mu)
        cone = (math.cos(phi), math.sin(phi), math.cos(-phi), math.sin(-phi))
        if mu and len(_CONES) < 64:
            _CONES[mu] = cone
    return cone


class ContactMatrix:
    """The contact matrix M = a I + b p p^T of `shape` at `object_pose` for a
    work-frame contact point (a, b > 0).

    a = 1 / f_max^2, b = 1 / m_max^2 and p = (py, pz) = perp(point - cof),
    with `cof` the work-frame centre of friction, so the moment of a contact
    force f about the CoF is p . f, the limit surface gives the object the
    twist (a f, b p . f), and the contact point moves with velocity M f.
    Every method runs on the floats of p and returns floats or float
    tuples. `p . f` in `twist` is rounded as numpy's dot product was, with
    one `_fma` (`scene._fma` says why that is exact).
    """

    __slots__ = ("a", "b", "cof", "py", "pz")

    def __init__(self, shape: ObjectShape, object_pose: PlanarPose, point):
        self.a = 1.0 / shape.f_max**2
        self.b = 1.0 / shape.m_max**2
        cy, cz = self.cof = object_pose.transform_point(shape.cof_offset)
        self.py = -(float(point[1]) - cz)
        self.pz = float(point[0]) - cy

    def apply(self, f) -> tuple[float, float]:
        """Contact-point velocity v_c = M f."""
        a, b, py, pz = self.a, self.b, self.py, self.pz
        fy, fz = float(f[0]), float(f[1])
        bpf = b * (py * fy + pz * fz)
        return a * fy + bpf * py, a * fz + bpf * pz

    def solve(self, v) -> tuple[float, float]:
        """f = M^-1 v via the rank-one (Sherman-Morrison) form of M."""
        a, b, py, pz = self.a, self.b, self.py, self.pz
        vy, vz = float(v[0]), float(v[1])
        k = b * (py * vy + pz * vz) / (a + b * (py * py + pz * pz))
        return (vy - k * py) / a, (vz - k * pz) / a

    def twist(self, f, s: float = 1.0) -> tuple[tuple[float, float], float]:
        """Object twist s * (a f, b p . f) for the contact force f: the CoF
        displacement (mm) and the spin about the CoF (rad)."""
        fy, fz = float(f[0]), float(f[1])
        sa = s * self.a
        return (sa * fy, sa * fz), s * self.b * _fma(self.pz, fz, self.py * fy)

    def edge_images(self, n_in, mu: float):
        """Friction-cone edge forces and their unnormalised velocity images.

        Returns (f_l, f_r, u_l, u_r): the left (+) and right (-) edges of the
        Coulomb cone about the inward normal and u = M f of each, the
        motion-cone edges.
        """
        cl, sl, cr, sr = _friction_cone(mu)
        f_l = _rotated(n_in, cl, sl)
        f_r = _rotated(n_in, cr, sr)
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
                return n_in, ContactMode.STICKING
            mode = ContactMode.SLIDING_LEFT if side > 0.0 else ContactMode.SLIDING_RIGHT
            return n_in, mode
        if beyond_l and beyond_r:
            # reflex corner: v_p opposes the cone; pick the side it is closer to
            mid = (u_l[0] + u_r[0], u_l[1] + u_r[1])
            if cross2(mid, v_p) > 0.0:
                return f_l, ContactMode.SLIDING_LEFT
            return f_r, ContactMode.SLIDING_RIGHT
        if beyond_l:
            return f_l, ContactMode.SLIDING_LEFT
        if beyond_r:
            return f_r, ContactMode.SLIDING_RIGHT
        return self.solve(v_p), ContactMode.STICKING


def _advance_pose(
    pose: PlanarPose, cof: tuple[float, float], dpos: tuple[float, float], dalpha_rad: float
) -> PlanarPose:
    """Rigidly displace the object: CoF translates by dpos, spin about the CoF."""
    cy, cz = cof
    ry, rz = _rotated((pose.y - cy, pose.z - cz), math.cos(dalpha_rad), math.sin(dalpha_rad))
    return PlanarPose(
        cy + dpos[0] + ry, cz + dpos[1] + rz, pose.alpha + math.degrees(dalpha_rad)
    )


def contact_at(shape: ObjectShape, object_pose: PlanarPose, tip) -> ContactState:
    """Contact of the tip disc centred at work-frame point `tip`: penetration is
    the disc-object overlap; SEPARATED without overlap, else STICKING (at rest).
    The point and the negated probe normal are rotated when first read."""
    probe = boundary_probe(shape, object_pose, tip)
    pen = TIP_RADIUS_MM - probe.sd
    mode = ContactMode.SEPARATED if pen <= 0.0 else ContactMode.STICKING
    c = ContactState(None, None, mode, pen)
    c._probe = probe
    return c


def resolve_substep(shape: ObjectShape, object_pose: PlanarPose, tip, pusher_disp):
    """Advance one pusher substep and resolve any disc-object overlap.

    The pusher disc centre moves from `tip` by `pusher_disp` (capped at
    SUBSTEP_CAP_MM). If the displaced disc overlaps the object, the object
    pose is advanced along the quasi-static twist until the residual overlap
    is at most PENETRATION_TOL_MM. Returns (new object pose, ContactState);
    the caller owns the pusher pose update.
    """
    dy, dz = float(pusher_disp[0]), float(pusher_disp[1])
    # only compared with thresholds, so math.hypot's rounding is harmless here
    disp_norm = math.hypot(dy, dz)
    # written so that NaN fails the check
    if not disp_norm <= SUBSTEP_CAP_MM + 1e-9:
        raise ValueError(
            f"resolve_substep: pusher_disp of {disp_norm:.3f} mm is not finite or "
            f"exceeds the {SUBSTEP_CAP_MM} mm substep cap"
        )
    ty, tz = float(tip[0]), float(tip[1])
    if not (math.isfinite(ty) and math.isfinite(tz)):
        raise ValueError(f"resolve_substep: tip must be finite, got ({ty!r}, {tz!r})")
    tip_new = (ty + dy, tz + dz)
    pose = object_pose

    c = contact_at(shape, pose, tip_new)
    if c.mode is ContactMode.SEPARATED:
        return pose, c

    # each dot product is rounded once (_fma), as the goldens were recorded
    disp = (dy, dz)
    mode = None
    for _ in range(MAX_RESOLVE_ITERS):
        if c.penetration <= PENETRATION_TOL_MM:
            break
        n_in = c.normal
        ny, nz = n_in
        m = ContactMatrix(shape, pose, c.point)
        if disp_norm > 1e-12 and _fma(dz, nz, dy * ny) > 1e-12:
            v_p = disp
        else:
            # stale overlap with no approaching drive: expel along the normal
            v_p = n_in
        f, step_mode = m.resolve(v_p, n_in, shape.mu_contact)
        uy, uz = m.apply(f)
        rate = _fma(uz, nz, uy * ny)
        if rate <= 1e-12:
            # edge twist cannot reduce overlap; fall back to a pure normal push
            f = n_in
            uy, uz = m.apply(f)
            rate = _fma(uz, nz, uy * ny)
        if mode is None:
            mode = step_mode
        dpos, dspin = m.twist(f, (c.penetration - _RESOLVE_RESIDUAL_MM) / rate)
        pose = _advance_pose(pose, m.cof, dpos, dspin)
        c = contact_at(shape, pose, tip_new)
    else:
        raise PhysicsFault(
            "penetration resolution did not converge",
            {
                "tip": list(tip_new),
                "object_pose": (pose.y, pose.z, pose.alpha),
                "penetration": c.penetration,
            },
        )

    if mode is None:
        # grazing contact (overlap within tolerance): classify without moving
        if disp_norm > 1e-12:
            _, mode = ContactMatrix(shape, pose, c.point).resolve(
                disp, c.normal, shape.mu_contact
            )
        else:
            mode = ContactMode.STICKING
    # set in place: a new ContactState would rotate both vectors now
    c.mode = mode
    return pose, c


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
    if not 0.0 < substep <= SUBSTEP_CAP_MM:  # NaN fails too
        raise ValueError(
            f"simulate_tap: substep must be > 0 and <= {SUBSTEP_CAP_MM} mm, got {substep!r}"
        )
    cmd = commanded_pose
    obj = world.object_pose
    pos = (float(world.pusher_pose.y), float(world.pusher_pose.z))
    alpha = world.pusher_pose.alpha
    contact = None

    def run_leg(target_pos: tuple[float, float], target_alpha: float):
        # positions are float pairs; np.hypot stays (3 calls a tap): it
        # rounds differently from math.hypot and sets n = ceil(dist /
        # substep), and a 10 mm advance puts dist / substep on an integer
        nonlocal obj, pos, alpha, contact
        y0, z0 = pos
        dy, dz = target_pos[0] - y0, target_pos[1] - z0
        dist = float(np.hypot(dy, dz))
        dalpha = normalize_angle_deg(target_alpha - alpha)
        if dist < 1e-12 and abs(dalpha) < 1e-12:
            return
        n = max(1, math.ceil(dist / substep))
        step = dist / n
        i = 0
        while i < n:
            i += 1
            p_next = (y0 + dy * (i / n), z0 + dz * (i / n))
            obj, contact = resolve_substep(
                shape, obj, pos, (p_next[0] - pos[0], p_next[1] - pos[1])
            )
            if contact.mode is ContactMode.SEPARATED and i < n:
                # conservative advancement: the signed distance is 1-Lipschitz,
                # so the substeps within the gap less the tolerance stay
                # separated and leave the object where it is; skip them, but
                # probe the leg's last substep, whose contact the tap reports
                free = math.floor((-contact.penetration - PENETRATION_TOL_MM) / step)
                if free > 0:
                    i = min(i + free, n - 1)
                    p_next = (y0 + dy * (i / n), z0 + dz * (i / n))
            pos = p_next
        alpha += dalpha

    run_leg((cmd.y, cmd.z), cmd.alpha)
    ay, az = heading_dir(cmd.alpha)
    run_leg((cmd.y + tap_forward * ay, cmd.z + tap_forward * az), cmd.alpha)
    sense_heading = normalize_angle_deg(alpha)
    advance_contact = contact
    back = tap_forward - tap_back
    run_leg((cmd.y + back * ay, cmd.z + back * az), cmd.alpha)
    end_pose = PlanarPose(pos[0], pos[1], alpha)
    return WorldState(obj, end_pose), sense_heading, advance_contact
