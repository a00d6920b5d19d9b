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
directions are physical.

M lives in resolve_substep's loop and in _resolve, on float locals: a, b,
the CoF and the friction cone's cos and sin are per-shape constants,
computed once in ObjectShape.__post_init__. _resolve takes the pose and the
probe's contact and returns the CoF, the lever p, the force and the mode;
the loop forms M f, the twist and the advanced PlanarPose itself. An
iteration builds that pose, _resolve's tuple and its probe's tuple, but no
matrix and no contact state.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    boundary_probe,
    heading_dir,
    normalize_angle_deg,
)

__all__ = [
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


# the members as module constants, which read faster than Enum attributes
_SEPARATED, _STICKING, _SLIDING_LEFT, _SLIDING_RIGHT = ContactMode


class ContactState(NamedTuple):
    """Contact bookkeeping for one substep.

    `point` is the contact point in the work frame, `normal` the unit push
    direction into the object, both float pairs. "left" for sliding modes is
    the +90 degree (counter-clockwise) side of the push normal.
    """

    point: tuple
    normal: tuple
    mode: ContactMode
    penetration: float


def _resolve(shape: ObjectShape, pose: PlanarPose, qy, qz, ny, nz, vy, vz):
    """(cy, cz, py, pz, fy, fz, mode): the contact-matrix kernel's one call.

    The work-frame CoF (cy, cz) of `shape` at `pose` (the CoF offset turned
    by the heading and moved by (y, z)), the lever p = perp(q - cof) of the
    work-frame contact point q, and the contact force direction f and mode
    for the pusher drive direction v with inward normal n. The motion-cone
    edges are u = M f of the friction-cone edges, the shape's cone (cos,
    sin) pairs turning n left (+) and right (-). Sticking if v lies inside
    the motion cone (f = M^-1 v, by the rank-one Sherman-Morrison form of
    M, interior to the friction cone); otherwise f pins to the friction-cone
    edge on v's side and the contact slides.
    """
    y, z, alpha = pose
    t = math.radians(alpha)
    c, s = math.cos(t), math.sin(t)
    oy, oz = shape._cof
    cy = y + c * oy - s * oz
    cz = z + s * oy + c * oz
    py, pz = -(qz - cz), qy - cy
    a, b = shape._inv_f2, shape._inv_m2
    cl, sl, cr, sr = shape._cone
    fly, flz = cl * ny - sl * nz, sl * ny + cl * nz
    fry, frz = cr * ny - sr * nz, sr * ny + cr * nz
    bpf = b * (py * fly + pz * flz)
    uly, ulz = a * fly + bpf * py, a * flz + bpf * pz
    bpf = b * (py * fry + pz * frz)
    ury, urz = a * fry + bpf * py, a * frz + bpf * pz
    side = uly * vz - ulz * vy  # u_l x v
    if shape.mu_contact == 0.0:
        if abs(side) < 1e-12:
            return cy, cz, py, pz, ny, nz, _STICKING
        return cy, cz, py, pz, ny, nz, _SLIDING_LEFT if side > 0.0 else _SLIDING_RIGHT
    beyond_l = side > 0.0
    beyond_r = ury * vz - urz * vy < 0.0
    if beyond_l and beyond_r:
        # reflex corner: v opposes the cone; pick the side it is closer to
        if (uly + ury) * vz - (ulz + urz) * vy > 0.0:
            return cy, cz, py, pz, fly, flz, _SLIDING_LEFT
        return cy, cz, py, pz, fry, frz, _SLIDING_RIGHT
    if beyond_l:
        return cy, cz, py, pz, fly, flz, _SLIDING_LEFT
    if beyond_r:
        return cy, cz, py, pz, fry, frz, _SLIDING_RIGHT
    k = b * (py * vy + pz * vz) / (a + b * (py * py + pz * pz))
    return cy, cz, py, pz, (vy - k * py) / a, (vz - k * pz) / a, _STICKING


def contact_at(shape: ObjectShape, object_pose: PlanarPose, tip) -> ContactState:
    """Contact of the tip disc centred at work-frame point `tip`: penetration is
    the disc-object overlap; SEPARATED without overlap, else STICKING (at rest).
    The point is the probe's, the normal the probe's negated."""
    sd, point, (ny, nz), _ = boundary_probe(shape, object_pose, tip)
    pen = TIP_RADIUS_MM - sd
    mode = _SEPARATED if pen <= 0.0 else _STICKING
    return ContactState(point, (-ny, -nz), mode, pen)


def resolve_substep(shape: ObjectShape, object_pose: PlanarPose, tip, pusher_disp):
    """Advance one pusher substep and resolve any disc-object overlap.

    The pusher disc centre moves from `tip` by `pusher_disp` (capped at
    SUBSTEP_CAP_MM). If the displaced disc overlaps the object, the object
    pose is advanced along the quasi-static twist until the residual overlap
    is at most PENETRATION_TOL_MM, in at most MAX_RESOLVE_ITERS steps.
    Returns (new object pose, ContactState); the caller owns the pusher pose
    update.

    Each step runs on float locals: from the probe's work-frame point and
    inward normal, one _resolve call gives the CoF, the lever, the force and
    the mode; the step forms M f, the twist and the advanced pose, then
    probes again. A ContactState is built only around the last probe.
    """
    dy, dz = float(pusher_disp[0]), float(pusher_disp[1])
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

    sd, (qy, qz), (ny, nz), _ = boundary_probe(shape, pose, tip_new)
    pen = TIP_RADIUS_MM - sd
    if pen <= 0.0:
        return pose, ContactState((qy, qz), (-ny, -nz), _SEPARATED, pen)

    a, b = shape._inv_f2, shape._inv_m2
    driven = disp_norm > 1e-12
    mode = None
    steps = 0
    while pen > PENETRATION_TOL_MM:
        if steps == MAX_RESOLVE_ITERS:
            raise PhysicsFault(
                "penetration resolution did not converge",
                {
                    "tip": list(tip_new),
                    "object_pose": list(pose),
                    "penetration": pen,
                },
            )
        steps += 1
        ny, nz = -ny, -nz  # the probe's outward normal, turned inward
        if driven and dy * ny + dz * nz > 1e-12:
            vy, vz = dy, dz
        else:
            # stale overlap with no approaching drive: expel along the normal
            vy, vz = ny, nz
        cy, cz, py, pz, fy, fz, step_mode = _resolve(shape, pose, qy, qz, ny, nz, vy, vz)
        # the contact-point velocity u = M f = a f + b (p . f) p
        pf = py * fy + pz * fz
        bpf = b * pf
        uy, uz = a * fy + bpf * py, a * fz + bpf * pz
        rate = uy * ny + uz * nz
        if rate <= 1e-12:
            # edge twist cannot reduce overlap; fall back to a pure normal push
            fy, fz = ny, nz
            pf = py * fy + pz * fz
            bpf = b * pf
            uy, uz = a * fy + bpf * py, a * fz + bpf * pz
            rate = uy * ny + uz * nz
        if mode is None:
            mode = step_mode
        # the twist t (a f, b p . f): the CoF moves by t a f and the object
        # spins by t b p . f rad about it
        t = (pen - _RESOLVE_RESIDUAL_MM) / rate
        ta = t * a
        spin = t * b * pf
        y, z, alpha = pose
        c, s = math.cos(spin), math.sin(spin)
        ry, rz = y - cy, z - cz
        pose = PlanarPose(cy + ta * fy + (c * ry - s * rz), cz + ta * fz + (s * ry + c * rz),
                          alpha + math.degrees(spin))
        sd, (qy, qz), (ny, nz), _ = boundary_probe(shape, pose, tip_new)
        pen = TIP_RADIUS_MM - sd

    ny, nz = -ny, -nz
    if mode is None:
        # grazing contact (overlap within tolerance): classify without moving
        mode = _resolve(shape, pose, qy, qz, ny, nz, dy, dz)[6] if driven else _STICKING
    return pose, ContactState((qy, qz), (ny, nz), mode, pen)


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
    `tap_back` mm. A leg of d mm has n = max(1, ceil(d / substep)) substeps,
    tip i at i / n of the way, each run through resolve_substep unless a
    free-space certificate proves that it cannot reach the object
    (conservative advancement); results are as if every substep ran. A
    relocation or retract that neither moves nor turns has no substep. The
    advance always runs its last substep, of length 0 if the advance is
    empty, so the tap reports the contact of a substep that ran.

    The certificate is the ContactState of the last substep that ran,
    separated or not, on every outline, across legs and taps: on entry it is
    the world's contact, which must be the contact at `world.object_pose`. A
    world without one counts as a zero-gap contact at the tip, which frees
    no tip. With q the contact point, m its inward normal, pen its
    penetration, clear the tip radius plus the tolerance and d the leg's
    displacement, it gives the current tip's clearance g, positive when the
    tip is free, and the most g can fall per substep, drop:
    - Convex outline: g = (q - tip) . m - clear and drop = (d . m) / n. A
      substep that runs ends with its tip outside the object and q its
      nearest boundary point, so the line through q normal to m supports
      the outline: a tip beyond it by more than the disc's radius cannot
      touch the object, wherever the substep moved it.
    - Other outlines (l_shape, mug): a notch or a handle may cross that
      line. The ball about the substep's tip q - sd m, sd = R - pen, gives
      g = sd - clear - |tip - (q - sd m)| and drop = |d| / n: the signed
      distance is 1-Lipschitz, so every tip in the ball is clear of the
      object. A contact has sd - clear < 0 and frees no tip.
    The tolerance margin covers the rounding of the probe and of the tips.

    Tip i + j has a clearance of at least g - j drop, so one rule counts
    the free tips ahead of tip i, up to the last one a leg may skip (n - 1
    on the advance, n otherwise), and skips their substeps: none if
    g - drop <= 0; all of them if drop <= 0 (the leg moves away, or only
    turns) or g - (last - i) drop >= 0; otherwise floor(g / drop).

    Returns (world, sense_heading, contact): the WorldState after the
    retraction, with the contact of the tap's last substep that ran, and
    the pusher heading (deg, wrapped) and ContactState at the end of the
    advance, which is where the tactile reading is taken (the retraction
    reopens the contact gap, so the deepest point is the only configuration
    reliably in contact).
    """
    if not 0.0 < substep <= SUBSTEP_CAP_MM:  # NaN fails too
        raise ValueError(
            f"simulate_tap: substep must be > 0 and <= {SUBSTEP_CAP_MM} mm, got {substep!r}"
        )
    for name, value in (("tap_forward", tap_forward), ("tap_back", tap_back)):
        if not math.isfinite(value):
            raise ValueError(f"simulate_tap: {name} must be finite, got {value!r}")
    cmd = commanded_pose
    obj, (ty, tz, alpha), contact = world
    ty, tz = float(ty), float(tz)
    convex = shape._convex
    clear = TIP_RADIUS_MM + PENETRATION_TOL_MM
    # the certificate is the last contact that ran; without one, a zero-gap
    # contact at the tip certifies no tip
    (qy, qz), (my, mz), _, pen = contact or ((ty, tz), (0.0, 0.0), None, 0.0)
    ay, az = heading_dir(cmd.alpha)
    back = tap_forward - tap_back
    legs = ((cmd.y, cmd.z, False), (cmd.y + tap_forward * ay, cmd.z + tap_forward * az, True),
            (cmd.y + back * ay, cmd.z + back * az, False))
    for end_y, end_z, reported in legs:
        y0, z0 = ty, tz
        dy, dz = end_y - y0, end_z - z0
        dist = math.hypot(dy, dz)
        dalpha = normalize_angle_deg(cmd.alpha - alpha)
        if not reported and dist < 1e-12 and abs(dalpha) < 1e-12:
            continue
        alpha += dalpha
        # a 10 mm advance puts dist / substep on an integer, so the substep
        # count can turn on dist's last bit
        n = max(1, math.ceil(dist / substep))
        last = n - 1 if reported else n
        i = 0
        while i < n:
            if convex:
                g = (qy - ty) * my + (qz - tz) * mz - clear
                drop = (dy * my + dz * mz) / n
            else:
                sd = TIP_RADIUS_MM - pen
                g = sd - clear - math.hypot(ty - (qy - sd * my), tz - (qz - sd * mz))
                drop = dist / n
            # k: how many tips ahead are free
            if g - drop <= 0.0:
                k = 0
            elif drop <= 0.0 or g - (last - i) * drop >= 0.0:
                k = last - i
            else:
                k = math.floor(g / drop)
            if k:
                i += k
                ty, tz = y0 + dy * (i / n), z0 + dz * (i / n)
            if i < n:
                i += 1
                next_y, next_z = y0 + dy * (i / n), z0 + dz * (i / n)
                obj, contact = resolve_substep(shape, obj, (ty, tz), (next_y - ty, next_z - tz))
                (qy, qz), (my, mz), _, pen = contact
                ty, tz = next_y, next_z
        if reported:
            sense_heading, advance_contact = normalize_angle_deg(alpha), contact
    return WorldState(obj, PlanarPose(ty, tz, alpha), contact), sense_heading, advance_contact
