"""Simulated tactile perception: a geometric contact-pose oracle plus noise.

The sensor reading is a pose prediction (z depth, alpha) of the sensor
relative to the local contact feature. Depth is the disc-object overlap
(tip radius minus centre-to-boundary distance) and alpha is the signed
in-plane angle from the inward contact normal to the sensor's forward axis:
alpha = 0 when the sensor is perpendicular to the pushed edge, positive when
the axis is rotated counter-clockwise (towards +alpha headings) of the
normal. Readings are clamped to the calibrated ranges z in [1, 5] mm and
alpha in [-20, 20] degrees. The other four pose components are zero: x, y
and gamma by construction, beta because the surface is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    WorldState,
    boundary_probe,
    dir_heading,
    normalize_angle_deg,
)

__all__ = [
    "ALPHA_RANGE_DEG",
    "NoiseModel",
    "PosePrediction",
    "Z_RANGE_MM",
    "apply_noise",
    "sense_contact",
]

Z_RANGE_MM = (1.0, 5.0)
ALPHA_RANGE_DEG = (-20.0, 20.0)


@dataclass(frozen=True)
class PosePrediction:
    """Tactile pose estimate. Depth/angles are absent (None) without contact."""

    in_contact: bool
    z_depth: float | None = None
    alpha: float | None = None
    clamped: bool = False


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian sensor noise with sigmas matched to the regressor's MAE."""

    sigma_z: float = 0.1
    sigma_alpha: float = 0.39
    enabled: bool = True

    def __post_init__(self):
        if not (self.sigma_z >= 0 and self.sigma_alpha >= 0):  # NaN fails too
            raise ValueError("NoiseModel sigmas must be >= 0")


def _clamp(value: float, lo: float, hi: float):
    clipped = min(max(value, lo), hi)
    return clipped, clipped != value


def sense_contact(world: WorldState, shape: ObjectShape) -> PosePrediction:
    """Read the contact pose of the pusher disc against the object.

    Reports contact only when the disc overlaps the outline (depth > 0);
    otherwise returns a no-contact prediction with no fabricated values.
    """
    pusher = world.pusher_pose
    sd, _, n_out, _ = boundary_probe(shape, world.object_pose, pusher.position)
    depth = TIP_RADIUS_MM - sd
    if depth <= 0.0:
        return PosePrediction(in_contact=False)
    normal_heading = dir_heading(-n_out)
    alpha_raw = normalize_angle_deg(pusher.alpha - normal_heading)
    z, z_clamped = _clamp(depth, *Z_RANGE_MM)
    alpha, a_clamped = _clamp(alpha_raw, *ALPHA_RANGE_DEG)
    return PosePrediction(
        in_contact=True,
        z_depth=z,
        alpha=alpha,
        clamped=z_clamped or a_clamped,
    )


def apply_noise(
    pred: PosePrediction, noise: NoiseModel, rng: np.random.Generator
) -> PosePrediction:
    """Perturb a contact prediction with seeded Gaussian noise, then re-clamp.

    Only z and alpha draw from the generator. No-contact predictions pass through unchanged.
    """
    if not noise.enabled or not pred.in_contact:
        return pred
    z_noisy = pred.z_depth + float(rng.normal(0.0, noise.sigma_z))
    a_noisy = pred.alpha + float(rng.normal(0.0, noise.sigma_alpha))
    z, z_clamped = _clamp(z_noisy, *Z_RANGE_MM)
    alpha, a_clamped = _clamp(a_noisy, *ALPHA_RANGE_DEG)
    return replace(
        pred,
        z_depth=z,
        alpha=alpha,
        clamped=pred.clamped or z_clamped or a_clamped,
    )
