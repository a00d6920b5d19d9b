"""Planar world model: object outlines, the plane embedding, contact geometry.

The support plane is the work frame's (y, z) plane and +x is the plane
normal, so a planar pose (y, z, alpha) embeds as the SE(3) Euler vector
(0, y, z, alpha, 0, 0). For a frame with heading alpha, the +z axis
(-sin a, cos a) is its forward/push direction and the +y axis
(cos a, sin a) is its lateral direction. All planar vectors in this module
are ordered (y, z). World state and physics use planar poses only; SE(3)
transforms are built from them only for the controller.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pose_math import (
    EulerPose,
    Transform,
    euler_to_transform,
    normalize_angle_deg,
)

__all__ = [
    "ObjectShape",
    "PlanarPose",
    "TIP_RADIUS_MM",
    "WorldState",
    "boundary_probe",
    "builtin_shapes",
    "cross2",
    "dir_heading",
    "heading_dir",
    "normalize_angle_deg",
    "perp2",
    "rot2",
    "shape_to_dict",
]

_G = 9.81  # m/s^2, for support-friction magnitudes in N

# radius of the disc pusher, the planar section of a hemispherical tip
TIP_RADIUS_MM = 20.0

# largest out-of-plane residue PlanarPose.from_transform accepts
_PLANAR_TOL = 1e-6


# ---------------------------------------------------------------------------
# planar vector helpers
# ---------------------------------------------------------------------------

def cross2(a, b) -> float:
    """2D cross product a x b for (y, z) vectors; positive is counter-clockwise."""
    return float(a[0] * b[1] - a[1] * b[0])


def perp2(v) -> np.ndarray:
    """Rotate a planar vector by +90 degrees (counter-clockwise)."""
    return np.array([-v[1], v[0]], dtype=float)


def rot2(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


def heading_dir(alpha_deg: float) -> np.ndarray:
    """Forward (+z axis) direction of a frame with the given heading."""
    a = math.radians(alpha_deg)
    return np.array([-math.sin(a), math.cos(a)])


def dir_heading(direction) -> float:
    """Heading (degrees) of the frame whose forward axis points along `direction`."""
    return math.degrees(math.atan2(-direction[0], direction[1]))


@dataclass(frozen=True)
class PlanarPose:
    """In-plane rigid pose: position (y, z) in mm and heading alpha in degrees."""

    y: float = 0.0
    z: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"PlanarPose.alpha must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", normalize_angle_deg(self.alpha))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.y, self.z])

    def to_transform(self) -> Transform:
        return euler_to_transform(EulerPose(0.0, self.y, self.z, self.alpha, 0.0, 0.0))

    @classmethod
    def from_transform(cls, t: Transform) -> "PlanarPose":
        """Read back a planar pose; rejects transforms that left the plane."""
        r = t.rotation
        if (
            abs(float(t.translation[0])) > _PLANAR_TOL
            or abs(float(r[0, 0]) - 1.0) > _PLANAR_TOL
            or abs(float(r[0, 1])) > _PLANAR_TOL
            or abs(float(r[0, 2])) > _PLANAR_TOL
        ):
            raise ValueError("transform is not a planar (y, z, alpha) pose")
        alpha = math.degrees(math.atan2(float(r[2, 1]), float(r[1, 1])))
        return cls(float(t.translation[1]), float(t.translation[2]), alpha)

    def transform_point(self, p_local) -> np.ndarray:
        """Map a planar point from this frame into the work frame."""
        a = math.radians(self.alpha)
        c, s = math.cos(a), math.sin(a)
        return np.array(
            [
                self.y + c * p_local[0] - s * p_local[1],
                self.z + s * p_local[0] + c * p_local[1],
            ]
        )

    def inverse_transform_point(self, p_work) -> np.ndarray:
        """Map a planar point from the work frame into this frame."""
        a = math.radians(self.alpha)
        c, s = math.cos(a), math.sin(a)
        dy = p_work[0] - self.y
        dz = p_work[1] - self.z
        return np.array([c * dy + s * dz, -s * dy + c * dz])


# ---------------------------------------------------------------------------
# object shapes
# ---------------------------------------------------------------------------

def _polygon_area(verts: np.ndarray) -> float:
    nxt = np.roll(verts, -1, axis=0)
    return 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]))


def _polygon_centroid(verts: np.ndarray) -> np.ndarray:
    nxt = np.roll(verts, -1, axis=0)
    cr = verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]
    area = 0.5 * float(np.sum(cr))
    cx = float(np.sum((verts[:, 0] + nxt[:, 0]) * cr)) / (6.0 * area)
    cy = float(np.sum((verts[:, 1] + nxt[:, 1]) * cr)) / (6.0 * area)
    return np.array([cx, cy])


def _segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = cross2(p4 - p3, p1 - p3)
    d2 = cross2(p4 - p3, p2 - p3)
    d3 = cross2(p2 - p1, p3 - p1)
    d4 = cross2(p2 - p1, p4 - p1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _polygon_is_simple(verts: np.ndarray) -> bool:
    n = len(verts)
    for i in range(n):
        a1, a2 = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            # skip edges sharing a vertex
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(a1, a2, verts[j], verts[(j + 1) % n]):
                return False
    return True


def _points_in_polygon(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd inside test, vectorized over query points."""
    p0 = verts
    p1 = np.roll(verts, -1, axis=0)
    y = points[:, 0][:, None]
    z = points[:, 1][:, None]
    cond = (p0[None, :, 1] > z) != (p1[None, :, 1] > z)
    denom = p1[None, :, 1] - p0[None, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = p0[None, :, 0] + (z - p0[None, :, 1]) * (
            p1[None, :, 0] - p0[None, :, 0]
        ) / denom
    crossings = np.sum(cond & (x_int > y), axis=1)
    return (crossings % 2) == 1


@dataclass
class ObjectShape:
    """Planar pushed object: outline, centre of friction, friction magnitudes.

    The outline is either a simple counter-clockwise polygon (vertices in mm,
    object frame) or a circle of the given radius. `cof_offset` locates the
    centre of friction in the object frame; `f_max` (N) and `m_max` (N mm)
    are the support-friction force/moment bounds of the ellipsoid model and
    `mu_contact` is the pusher-object Coulomb coefficient.
    """

    name: str
    polygon: np.ndarray | None = None
    radius: float | None = None
    cof_offset: np.ndarray = field(default_factory=lambda: np.zeros(2))
    f_max: float = 1.0
    m_max: float = 15.0
    mu_contact: float = 0.5

    def __post_init__(self):
        self.cof_offset = np.asarray(self.cof_offset, dtype=float).reshape(2)
        if (self.polygon is None) == (self.radius is None):
            raise ValueError(f"shape {self.name!r}: exactly one of polygon/radius required")
        self._check_friction()
        if self.radius is not None:
            if self.radius <= 0.0:
                raise ValueError(f"shape {self.name!r}: radius must be > 0")
            if float(np.hypot(*self.cof_offset)) >= self.radius:
                raise ValueError(f"shape {self.name!r}: cof_offset outside outline")
            self._verts = None
        else:
            verts = np.asarray(self.polygon, dtype=float)
            if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
                raise ValueError(f"shape {self.name!r}: polygon must be (n>=3, 2)")
            if _polygon_area(verts) <= 0.0:
                raise ValueError(f"shape {self.name!r}: polygon must be counter-clockwise")
            if not _polygon_is_simple(verts):
                raise ValueError(f"shape {self.name!r}: polygon is self-intersecting")
            if not bool(_points_in_polygon(self.cof_offset[None, :], verts)[0]):
                raise ValueError(f"shape {self.name!r}: cof_offset outside outline")
            self.polygon = verts
            self._verts = verts
            self._edge_vec = np.roll(verts, -1, axis=0) - verts
            self._edge_len2 = np.maximum(np.sum(self._edge_vec**2, axis=1), 1e-30)
            # CCW polygon: interior is left of each directed edge, outward is right
            en = np.stack([self._edge_vec[:, 1], -self._edge_vec[:, 0]], axis=1)
            self._edge_normal = en / np.linalg.norm(en, axis=1, keepdims=True)

    def _check_friction(self):
        # written so that NaN fails each check
        if not self.f_max > 0.0:
            raise ValueError(f"shape {self.name!r}: f_max must be > 0")
        if not self.m_max > 0.0:
            raise ValueError(f"shape {self.name!r}: m_max must be > 0")
        if not self.mu_contact >= 0.0:
            raise ValueError(f"shape {self.name!r}: mu_contact must be >= 0")

    @property
    def is_polygon(self) -> bool:
        return self.radius is None

    @property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normals of the polygon edges (object frame)."""
        if self.radius is not None:
            raise ValueError(f"shape {self.name!r}: circles have no edges")
        return self._edge_normal

    def max_extent(self) -> float:
        """Largest distance from the object origin to the outline."""
        if self.radius is not None:
            return float(self.radius)
        return float(np.max(np.linalg.norm(self._verts, axis=1)))

    def with_friction(
        self,
        f_max: float | None = None,
        m_max: float | None = None,
        mu_contact: float | None = None,
    ) -> "ObjectShape":
        """Copy with perturbed friction parameters (geometry shared).

        Only the friction fields are validated: the outline and its derived
        edge arrays are the base shape's, already checked.
        """
        variant = copy.copy(self)
        if f_max is not None:
            variant.f_max = f_max
        if m_max is not None:
            variant.m_max = m_max
        if mu_contact is not None:
            variant.mu_contact = mu_contact
        variant._check_friction()
        return variant


# ---------------------------------------------------------------------------
# contact geometry kernel
# ---------------------------------------------------------------------------

def boundary_probe(shape: ObjectShape, pose: PlanarPose, p_work):
    """Nearest boundary point of the posed shape to a planar query point.

    Returns (signed_distance, point, outward_normal, feature) in the work
    frame. The signed distance is negative when the query lies inside the
    outline. Feature ids are ("edge", i), ("vertex", i) or ("arc", 0).
    """
    p_work = np.asarray(p_work, dtype=float)
    q = pose.inverse_transform_point(p_work)

    if shape.radius is not None:
        d = math.hypot(q[0], q[1])
        if d < 1e-12:
            n_local = np.array([1.0, 0.0])
        else:
            n_local = q / d
        point_local = n_local * shape.radius
        sd = d - shape.radius
        feature = ("arc", 0)
    else:
        verts = shape._verts
        w = q[None, :] - verts
        t = np.sum(w * shape._edge_vec, axis=1) / shape._edge_len2
        t = np.clip(t, 0.0, 1.0)
        proj = verts + t[:, None] * shape._edge_vec
        diff = q[None, :] - proj
        d2 = np.sum(diff * diff, axis=1)
        i = int(np.argmin(d2))
        ti = float(t[i])
        point_local = proj[i]
        dist = math.sqrt(float(d2[i]))
        inside = bool(_points_in_polygon(q[None, :], verts)[0])
        sd = -dist if inside else dist

        eps = 1e-9
        if eps < ti < 1.0 - eps:
            feature = ("edge", i)
            n_local = shape._edge_normal[i]
        else:
            vi = i if ti <= eps else (i + 1) % len(verts)
            feature = ("vertex", vi)
            v = verts[vi]
            dv = q - v
            nv = math.hypot(dv[0], dv[1])
            if nv < 1e-12:
                # query sits on the vertex: fall back to the outward bisector
                n_prev = shape._edge_normal[(vi - 1) % len(verts)]
                n_next = shape._edge_normal[vi]
                b = n_prev + n_next
                n_local = b / max(math.hypot(b[0], b[1]), 1e-12)
            elif inside:
                n_local = -dv / nv
            else:
                n_local = dv / nv

    a = math.radians(pose.alpha)
    c, s = math.cos(a), math.sin(a)
    rr = np.array([[c, -s], [s, c]])
    return sd, pose.position + rr @ point_local, rr @ n_local, feature


# ---------------------------------------------------------------------------
# built-in shape catalog
# ---------------------------------------------------------------------------

def _mean_support_radius(verts: np.ndarray, step: float = 1.0) -> float:
    """Mean distance of the support area from the origin (grid integral)."""
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    ys = np.arange(lo[0] + step / 2, hi[0], step)
    zs = np.arange(lo[1] + step / 2, hi[1], step)
    gy, gz = np.meshgrid(ys, zs, indexing="ij")
    pts = np.stack([gy.ravel(), gz.ravel()], axis=1)
    mask = _points_in_polygon(pts, verts)
    r = np.linalg.norm(pts[mask], axis=1)
    return float(np.mean(r))


def _recentered(verts) -> np.ndarray:
    verts = np.asarray(verts, dtype=float)
    return verts - _polygon_centroid(verts)


def _square(side: float) -> np.ndarray:
    h = side / 2.0
    return np.array([[-h, -h], [h, -h], [h, h], [-h, h]])


def _mug_outline() -> np.ndarray:
    # disc with a protruding handle tab; concave where the tab meets the arc.
    # 5 degree facets keep the sensed normal smooth under a rolling tip, and
    # the overall size keeps tip-to-CoF reach inside the 60 mm approach zone.
    r = 26.0
    angles = np.deg2rad(np.arange(30.0, 331.0, 5.0))
    arc = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    handle = np.array([[37.0, -10.0], [37.0, 10.0]])
    return _recentered(np.vstack([arc, handle]))


def _make_shape(name: str, mass_kg: float, *, polygon=None, radius=None) -> ObjectShape:
    # support and pusher-object friction coefficients are both 0.5
    f_max = 0.5 * mass_kg * _G
    if radius is not None:
        r_mean = 2.0 * radius / 3.0
    else:
        polygon = _recentered(polygon)
        r_mean = _mean_support_radius(polygon)
    m_max = 0.6 * r_mean * f_max
    return ObjectShape(
        name=name,
        polygon=polygon,
        radius=radius,
        cof_offset=np.zeros(2),
        f_max=f_max,
        m_max=m_max,
        mu_contact=0.5,
    )


@lru_cache(maxsize=1)
def _catalog() -> dict:
    shapes = [
        _make_shape("blue_square", 0.25, polygon=_square(60.0)),
        _make_shape("red_square", 0.12, polygon=_square(40.0)),
        _make_shape(
            "yellow_triangle",
            0.10,
            polygon=[
                [70.0 / math.sqrt(3.0) * math.cos(math.radians(a)),
                 70.0 / math.sqrt(3.0) * math.sin(math.radians(a))]
                for a in (90.0, 210.0, 330.0)
            ],
        ),
        _make_shape("rectangle", 0.30, polygon=[[-40, -25], [40, -25], [40, 25], [-40, 25]]),
        _make_shape("circle", 0.18, radius=35.0),
        _make_shape(
            "l_shape",
            0.15,
            # L-outline with a 17 mm notch: narrower than the tip radius so
            # the disc bridges it (no push line through the CoF exists from
            # inside a notch, so a deep notch is unpushable by construction);
            # overall size keeps tip-to-CoF reach inside the approach zone
            polygon=[[0, 0], [54, 0], [54, 37], [37, 37], [37, 54], [0, 54]],
        ),
        _make_shape("mug", 0.28, polygon=_mug_outline()),
    ]
    return {s.name: s for s in shapes}


def builtin_shapes() -> dict:
    """Catalog of pushable objects.

    Convex outlines: blue_square (60 mm side), red_square (40 mm),
    yellow_triangle (70 mm equilateral), rectangle (80 x 50 mm),
    circle (35 mm radius). Non-convex: l_shape (80 mm L with a 40 mm notch)
    and mug (32 mm disc with a handle tab). All outlines are centred on
    their area centroid, which is also the centre of friction.
    """
    return dict(_catalog())


def shape_to_dict(shape: ObjectShape) -> dict:
    d = {
        "name": shape.name,
        "cof_offset_mm": [float(v) for v in shape.cof_offset],
        "f_max_n": shape.f_max,
        "m_max_nmm": shape.m_max,
        "mu_contact": shape.mu_contact,
    }
    if shape.radius is not None:
        d["circle_radius_mm"] = float(shape.radius)
    else:
        d["polygon_mm"] = [[float(v) for v in row] for row in shape.polygon]
    return d


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------

@dataclass
class WorldState:
    """Simulator ground truth: object and pusher planar poses."""

    object_pose: PlanarPose
    pusher_pose: PlanarPose
