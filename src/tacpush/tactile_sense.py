"""Simulated tactile perception: a reading of the resolved contact plus noise.

The sensor reading is a pose prediction (z depth, alpha) of the sensor
relative to the local contact feature, read from the ContactState that the
physics resolved; the sensor knows no geometry. Depth is the contact's
penetration (the disc-object overlap) and alpha is the signed
in-plane angle from the inward contact normal to the sensor's forward axis:
alpha = 0 when the sensor is perpendicular to the pushed edge, positive when
the axis is rotated counter-clockwise (towards +alpha headings) of the
normal. Readings are clamped to the calibrated ranges z in [1, 5] mm and
alpha in [-20, 20] degrees. The other four pose components are zero: x, y
and gamma by construction, beta because the surface is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .push_dynamics import ContactState
from .scene import dir_heading, normalize_angle_deg

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


class PosePrediction(NamedTuple):
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
        # written so that NaN fails too
        if not (0 <= self.sigma_z < math.inf and 0 <= self.sigma_alpha < math.inf):
            raise ValueError("NoiseModel sigmas must be finite and >= 0")


def _clamp(value: float, lo: float, hi: float):
    clipped = min(max(value, lo), hi)
    return clipped, clipped != value


def sense_contact(contact: ContactState, heading: float) -> PosePrediction:
    """Read the contact pose of a pusher with heading `heading` (deg).

    Reports contact only when the disc overlaps the outline (penetration
    > 0); otherwise returns a no-contact prediction with no fabricated values.
    """
    if contact.penetration <= 0.0:
        return PosePrediction(in_contact=False)
    alpha_raw = normalize_angle_deg(heading - dir_heading(contact.normal))
    z, z_clamped = _clamp(contact.penetration, *Z_RANGE_MM)
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
    Each draw is rng.normal(0.0, sigma) as numpy computes it: 0.0 + sigma * standard_normal().
    """
    if not noise.enabled or not pred.in_contact:
        return pred
    z_noisy = pred.z_depth + (0.0 + noise.sigma_z * rng.standard_normal())
    a_noisy = pred.alpha + (0.0 + noise.sigma_alpha * rng.standard_normal())
    z, z_clamped = _clamp(z_noisy, *Z_RANGE_MM)
    alpha, a_clamped = _clamp(a_noisy, *ALPHA_RANGE_DEG)
    return PosePrediction(True, z, alpha, pred.clamped or z_clamped or a_clamped)
