"""Brute-force contact oracle for validating the analytical push resolution.

Discretizes the Coulomb friction cone into candidate forces, maps each
through the ellipsoid limit surface, scales the resulting twist so the
contact-point velocity matches the pusher's normal velocity, and selects
the candidate satisfying tangential complementarity (interior force: zero
slip; edge force: slip opposing the friction component). The oracle is
entirely independent of the analytical motion-cone classification in the
package. One helper here calls into the package's contact-matrix kernel:
`wrench_twist`, which maps wrenches onto its float functions for the
limit-surface gradient checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tacpush.push_dynamics import _lever, _twist
from tacpush.scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
)


def perp2(v):
    return np.array([-v[1], v[0]])


def _rot(v, rad):
    c, s = math.cos(rad), math.sin(rad)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


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
        t = np.array([a * forces[0, i], a * forces[1, i], b * moments[i]])
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
    f_l = _rot(n_in, phi)
    f_r = _rot(n_in, -phi)
    u_l = a * f_l + b * float(p @ f_l) * p
    u_r = a * f_r + b * float(p @ f_r) * p
    v = np.asarray(v_p, dtype=float)
    v = v / np.linalg.norm(v)
    out = []
    for u in (u_l, u_r):
        u = u / np.linalg.norm(u)
        out.append(math.degrees(math.acos(np.clip(abs(float(u @ v)), -1.0, 1.0))))
    return min(out)


def wrench_twist(wrench, shape: ObjectShape) -> np.ndarray:
    """Unit twist the contact-matrix kernel gives for a CoF wrench (fy, fz, m).

    The force (fy, fz) is applied at the contact point whose lever
    p = perp(point - CoF) makes its moment p . f equal to m; the result is
    the limit-surface twist direction that the finite-difference gradient of
    H must match.
    """
    f = np.array(wrench[:2], dtype=float)
    p = float(wrench[2]) * f / float(f @ f)
    qy, qz = (shape.cof_offset + np.array((p[1], -p[0]))).tolist()
    _, _, py, pz = _lever(shape, PlanarPose(), qy, qz)
    t = np.array(_twist(shape._inv_f2, shape._inv_m2, py, pz, *f.tolist(), 1.0))
    return t / np.linalg.norm(t)


def voting_theorem_vote(r, n_in, mu, v_p) -> int:
    """Rotation-sense vote: friction-cone edges agree, or the push line decides.

    r is contact point minus centre of friction. Returns +1 (counter-
    clockwise), -1 (clockwise) or 0 (tied/degenerate).
    """
    phi = math.atan(mu)
    f_l = _rot(n_in, phi)
    f_r = _rot(n_in, -phi)
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
        v_p = _rot(n_in, dev)
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
