"""Brute-force contact oracle for validating the analytical push resolution.

Discretizes the Coulomb friction cone into candidate forces, maps each
through the ellipsoid limit surface, scales the resulting twist so the
contact-point velocity matches the pusher's normal velocity, and selects
the candidate satisfying tangential complementarity (interior force: zero
slip; edge force: slip opposing the friction component). The oracle is
entirely independent of the analytical motion-cone classification in the
package, and it forms the limit-surface quantities itself, in numpy: the
CoF and the lever (`lever`), the contact matrix M (`contact_matrix`) and
the twist of a contact force (`twist`). From the package it takes only the
shapes, poses and probe that build its configurations. `to_work` maps a
point of a pose's frame into the work frame, for the tests that pose points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tacpush.scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
)


def to_work(pose: PlanarPose, p_local) -> tuple[float, float]:
    """The work-frame point, as Python floats, of the point `p_local` of the
    frame `pose`."""
    a = math.radians(pose.alpha)
    c, s = math.cos(a), math.sin(a)
    py, pz = float(p_local[0]), float(p_local[1])
    return pose.y + c * py - s * pz, pose.z + s * py + c * pz


def perp2(v):
    return np.array([-v[1], v[0]])


def rot(v, rad):
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def limit_surface(shape: ObjectShape):
    """(a, b) = (1 / f_max^2, 1 / m_max^2) of the ellipsoid limit surface."""
    return 1.0 / shape.f_max ** 2, 1.0 / shape.m_max ** 2


def lever(shape: ObjectShape, pose: PlanarPose, point):
    """(cof, p): the work-frame CoF of `shape` at `pose` and the lever
    p = perp(point - cof) of a work-frame contact point."""
    cof = np.array((pose.y, pose.z)) + rot(shape.cof_offset, math.radians(pose.alpha))
    return cof, perp2(np.asarray(point, dtype=float) - cof)


def contact_matrix(a, b, p) -> np.ndarray:
    """M = a I + b p p^T, which maps a contact force to the contact point's
    velocity."""
    p = np.asarray(p, dtype=float)
    return a * np.eye(2) + b * np.outer(p, p)


def twist(a, b, p, f) -> np.ndarray:
    """The limit-surface twist (vy, vz, omega) = (a f, b p . f) of a contact
    force f at lever p: the CoF velocity and the spin about the CoF."""
    f = np.asarray(f, dtype=float)
    return np.array((a * f[0], a * f[1], b * float(np.dot(p, f))))


def brute_force_push(v_p, n_in, mu, a, b, p, n_candidates=10_000):
    """Exhaustive friction-cone search.

    Returns (unit twist (vy, vz, omega), mode string) or (None, None) when no
    candidate is contact-consistent (pusher not approaching).
    """
    v_p = np.asarray(v_p, dtype=float)
    n_in = np.asarray(n_in, dtype=float)
    p = np.asarray(p, dtype=float)
    phi = math.atan(mu)
    angles = np.linspace(-phi, phi, n_candidates)
    ca, sa = np.cos(angles), np.sin(angles)
    forces = np.stack([ca * n_in[0] - sa * n_in[1], sa * n_in[0] + ca * n_in[1]])
    moments = p @ forces
    velocities = a * forces + b * moments * p[:, None]
    rates = n_in @ velocities
    approach = float(v_p @ n_in)
    if approach <= 0.0:
        return None, None
    with np.errstate(divide="ignore", invalid="ignore"):
        scales = np.where(rates > 1e-15, approach / rates, np.nan)
    t_hat = perp2(n_in)
    slip = (v_p[:, None] - scales * velocities).T @ t_hat
    valid = np.isfinite(slip)

    def twist_at(i):
        t = twist(a, b, p, forces[:, i])
        return t / np.linalg.norm(t)

    # interior sticking solution: slip crosses zero strictly inside the cone
    interior = valid.copy()
    interior[0] = interior[-1] = False
    if np.any(interior):
        idx = np.where(interior)[0]
        best = idx[int(np.argmin(np.abs(slip[idx])))]
        span = np.nanmax(np.abs(slip[valid])) + 1e-30
        if 0 < best < n_candidates - 1 and abs(slip[best]) < 1e-3 * span + 1e-12:
            return twist_at(best), "sticking"
    if valid[-1] and slip[-1] > 0.0:
        return twist_at(n_candidates - 1), "sliding_left"
    if valid[0] and slip[0] < 0.0:
        return twist_at(0), "sliding_right"
    # fall back to the least-inconsistent candidate
    idx = np.where(valid)[0]
    if len(idx) == 0:
        return None, None
    best = idx[int(np.argmin(np.abs(slip[idx])))]
    return twist_at(best), "sticking"


def motion_cone_margin_deg(v_p, n_in, mu, a, b, p) -> float:
    """Angular distance of the drive direction from the motion-cone edges."""
    phi = math.atan(mu)
    f_l = rot(n_in, phi)
    f_r = rot(n_in, -phi)
    m = contact_matrix(a, b, p)
    u_l, u_r = m @ f_l, m @ f_r
    v = np.asarray(v_p, dtype=float)
    v = v / np.linalg.norm(v)
    out = []
    for u in (u_l, u_r):
        u = u / np.linalg.norm(u)
        out.append(math.degrees(math.acos(np.clip(abs(float(u @ v)), -1.0, 1.0))))
    return min(out)


def voting_theorem_vote(r, n_in, mu, v_p) -> int:
    """Rotation-sense vote: friction-cone edges agree, or the push line decides.

    r is contact point minus centre of friction. Returns +1 (counter-
    clockwise), -1 (clockwise) or 0 (tied/degenerate).
    """
    phi = math.atan(mu)
    f_l = rot(n_in, phi)
    f_r = rot(n_in, -phi)
    cl = r[0] * f_l[1] - r[1] * f_l[0]
    cr = r[0] * f_r[1] - r[1] * f_r[0]
    vl, vr = np.sign(cl), np.sign(cr)
    if vl == vr:
        return int(vl)
    cp = r[0] * v_p[1] - r[1] * v_p[0]
    return int(np.sign(cp))


@dataclass
class ContactConfig:
    """One randomized single-point pushing configuration."""

    shape: ObjectShape
    object_pose: PlanarPose
    tip: np.ndarray  # pusher disc centre before the substep
    contact_point: np.ndarray
    n_in: np.ndarray
    v_p: np.ndarray  # unit drive direction
    disp: np.ndarray  # substep displacement (capped)
    penetration: float


_CONVEX_NAMES = ("blue_square", "red_square", "yellow_triangle", "rectangle", "circle")


def random_contact_configs(n: int, seed: int):
    """Generate randomized contact configurations against catalog shapes."""
    rng = np.random.default_rng(seed)
    catalog = builtin_shapes()
    configs = []
    while len(configs) < n:
        name = _CONVEX_NAMES[int(rng.integers(len(_CONVEX_NAMES)))]
        mu = float(rng.uniform(0.05, 1.0))
        shape = replace(catalog[name], mu_contact=mu)
        pose = PlanarPose(
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-180, 180)),
        )
        # sample a boundary point via a random exterior probe direction
        ang = float(rng.uniform(0, 2 * math.pi))
        probe = (pose.y + 400.0 * math.cos(ang), pose.z + 400.0 * math.sin(ang))
        sd, point, n_out, feature = boundary_probe(shape, pose, probe)
        point, n_out = np.asarray(point), np.asarray(n_out)
        n_in = -n_out
        pen = float(rng.uniform(0.05, 0.3))
        tip_center = point + (TIP_RADIUS_MM - pen) * n_out
        # drive with a definite approach component
        dev = math.radians(float(rng.uniform(-70, 70)))
        v_p = rot(n_in, dev)
        configs.append(
            ContactConfig(
                shape=shape,
                object_pose=pose,
                tip=tip_center,
                contact_point=point,
                n_in=n_in,
                v_p=v_p,
                disp=0.4 * v_p,
                penetration=pen,
            )
        )
    return configs
