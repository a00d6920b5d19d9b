"""Planar world model: object outlines, the plane embedding, contact geometry.

The support plane is the work frame's (y, z) plane and +x is the plane
normal, so a planar pose (y, z, alpha) embeds as the SE(3) Euler vector
(0, y, z, alpha, 0, 0). For a frame with heading alpha, the +z axis
(-sin a, cos a) is its forward/push direction and the +y axis
(cos a, sin a) is its lateral direction. All planar vectors in this module
are ordered (y, z): a single vector is a (y, z) float pair, and numpy arrays
hold only tables of many points (outlines, edge normals). World state,
physics and the controller use planar poses only; no trial builds an SE(3)
transform.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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
    "dir_heading",
    "heading_dir",
    "normalize_angle_deg",
]

_G = 9.81  # m/s^2, for support-friction magnitudes in N

# radius of the disc pusher, the planar section of a hemispherical tip
TIP_RADIUS_MM = 20.0

# boundary_probe's candidate-edge grid: cell side, and how far the grid
# reaches past the outline's bounding box (queries beyond it try every edge)
_GRID_CELL_MM = 4.0
_GRID_MARGIN_MM = 2.0 * TIP_RADIUS_MM
# largest cells x edges a grid may have; a bigger outline has no grid, so
# every query tries every edge
_GRID_MAX_ENTRIES = 1 << 20

# ---------------------------------------------------------------------------
# planar vector helpers
# ---------------------------------------------------------------------------

def heading_dir(alpha_deg: float) -> tuple[float, float]:
    """Forward (+z axis) direction of a frame with the given heading."""
    a = math.radians(alpha_deg)
    return -math.sin(a), math.cos(a)


def dir_heading(direction) -> float:
    """Heading (degrees) of the frame whose forward axis points along `direction`."""
    return math.degrees(math.atan2(-direction[0], direction[1]))


class PlanarPose(namedtuple("PlanarPose", "y z alpha")):
    """In-plane rigid pose: position (y, z) in mm and heading alpha in degrees.

    A named tuple whose constructor checks that every field is finite and
    wraps alpha to (-180, 180]. Unpickling and copying run the constructor
    again, which leaves a wrapped heading as it is; `_make` and `_replace`
    skip both the checks and the wrap.
    """

    __slots__ = ()

    def __new__(cls, y=0.0, z=0.0, alpha=0.0):
        if not (math.isfinite(y) and math.isfinite(z) and math.isfinite(alpha)):
            for name, value in zip(cls._fields, (y, z, alpha)):
                if not math.isfinite(value):
                    raise ValueError(f"PlanarPose.{name} must be finite, got {value!r}")
        return tuple.__new__(cls, (y, z, normalize_angle_deg(alpha)))

    def to_transform(self) -> Transform:
        """The SE(3) transform of the pose (0, y, z, alpha, 0, 0)."""
        return euler_to_transform(EulerPose(0.0, self.y, self.z, self.alpha, 0.0, 0.0))


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


def _turn(a, b, c) -> float:
    """(b - a) x (c - a) of (y, z) pairs: positive when c lies left of a -> b."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1, p2, p3, p4) -> bool:
    return ((_turn(p3, p4, p1) > 0) != (_turn(p3, p4, p2) > 0)) and (
        (_turn(p1, p2, p3) > 0) != (_turn(p1, p2, p4) > 0)
    )


def _polygon_is_simple(verts: np.ndarray) -> bool:
    pts = verts.tolist()
    edges = list(zip(pts, pts[1:] + pts[:1]))
    n = len(edges)
    for i, (a1, a2) in enumerate(edges):
        # edge i against the later edges that share no vertex with it
        for b1, b2 in edges[i + 2:n - 1 if i == 0 else n]:
            if _segments_intersect(a1, a2, b1, b2):
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


def _candidate_grid(verts: np.ndarray, edge_vec: np.ndarray) -> tuple:
    """Candidate-edge table of boundary_probe.

    Returns (y0, z0, cells_y, cells_z, cells): cells[k] is the ascending
    tuple of the edges listed for cell k = iy * cells_z + iz, and cells with
    the same edges share one tuple. A cell lists every edge whose distance
    from the cell centre is at most the smallest such distance plus the cell
    diagonal (plus 1e-6 mm for rounding). Distance to a segment is
    1-Lipschitz and every point of the cell lies within half a diagonal of
    its centre, so every edge that can be nearest to a point of the cell is
    listed, ties included.
    """
    lo = verts.min(axis=0) - _GRID_MARGIN_MM
    cells_y, cells_z = np.ceil((verts.max(axis=0) + _GRID_MARGIN_MM - lo) / _GRID_CELL_MM)
    # counted in floats, so that a huge outline cannot overflow the count
    if cells_y * cells_z * len(verts) > _GRID_MAX_ENTRIES:
        return float(lo[0]), float(lo[1]), 0, 0, ()
    cells_y, cells_z = int(cells_y), int(cells_z)
    cy = lo[0] + (np.arange(cells_y) + 0.5) * _GRID_CELL_MM
    cz = lo[1] + (np.arange(cells_z) + 0.5) * _GRID_CELL_MM
    # cell centres in cell order (one row each) less every edge's start
    ry = np.repeat(cy, cells_z)[:, None] - verts[:, 0]
    rz = np.tile(cz, cells_y)[:, None] - verts[:, 1]
    ey, ez = edge_vec[:, 0], edge_vec[:, 1]
    t = np.clip((ry * ey + rz * ez) / np.maximum(ey * ey + ez * ez, 1e-30), 0.0, 1.0)
    ry -= t * ey
    rz -= t * ez
    dist = np.sqrt(ry * ry + rz * rz)
    band = dist.min(axis=1, keepdims=True) + math.sqrt(2.0) * _GRID_CELL_MM + 1e-6
    listed = dist <= band
    starts = np.concatenate(([0], np.cumsum(listed.sum(axis=1)))).tolist()
    # nonzero walks the mask row by row, so each cell's edges come out ascending
    edges = np.nonzero(listed)[1].tolist()
    shared = {}
    cells = tuple(shared.setdefault(c, c)
                  for c in (tuple(edges[a:b]) for a, b in zip(starts, starts[1:])))
    return float(lo[0]), float(lo[1]), cells_y, cells_z, cells


@dataclass(frozen=True)
class ObjectShape:
    """Planar pushed object: outline, centre of friction, friction magnitudes.

    The outline is either a simple counter-clockwise polygon (vertices in mm,
    object frame) or a circle of the given radius. `cof_offset` locates the
    centre of friction in the object frame; `f_max` (N) and `m_max` (N mm)
    are the support-friction force/moment bounds of the ellipsoid model and
    `mu_contact` is the pusher-object Coulomb coefficient.

    Frozen, with read-only arrays: boundary_probe's tables are derived from
    the outline once, here.
    """

    name: str
    polygon: np.ndarray | None = None
    radius: float | None = None
    cof_offset: np.ndarray = field(default_factory=lambda: np.zeros(2))
    f_max: float = 1.0
    m_max: float = 15.0
    mu_contact: float = 0.5

    def __post_init__(self):
        # the arrays are copies made read-only, so that no write in place can
        # move the outline or the CoF behind the checks and the probe's tables
        cof_offset = np.array(self.cof_offset, dtype=float).reshape(2)
        cof_offset.setflags(write=False)
        object.__setattr__(self, "cof_offset", cof_offset)
        if (self.polygon is None) == (self.radius is None):
            raise ValueError(f"shape {self.name!r}: exactly one of polygon/radius required")
        # written so that NaN fails each check
        if not self.f_max > 0.0:
            raise ValueError(f"shape {self.name!r}: f_max must be > 0")
        if not self.m_max > 0.0:
            raise ValueError(f"shape {self.name!r}: m_max must be > 0")
        if not self.mu_contact >= 0.0:
            raise ValueError(f"shape {self.name!r}: mu_contact must be >= 0")
        if self.radius is not None:
            if not 0.0 < self.radius < math.inf:  # NaN fails too
                raise ValueError(f"shape {self.name!r}: radius must be finite and > 0")
            convex = True
        else:
            verts = np.array(self.polygon, dtype=float)
            verts.setflags(write=False)
            if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
                raise ValueError(f"shape {self.name!r}: polygon must be (n>=3, 2)")
            if not np.isfinite(verts).all():
                raise ValueError(f"shape {self.name!r}: polygon vertices must be finite")
            if _polygon_area(verts) <= 0.0:
                raise ValueError(f"shape {self.name!r}: polygon must be counter-clockwise")
            if not _polygon_is_simple(verts):
                raise ValueError(f"shape {self.name!r}: polygon is self-intersecting")
            # a simple counter-clockwise polygon with no right turn is convex
            pts = verts.tolist()
            convex = all(_turn(pts[k - 2], pts[k - 1], pts[k]) >= 0.0 for k in range(len(pts)))
            edge_vec = np.roll(verts, -1, axis=0) - verts
            # CCW polygon: interior is left of each directed edge, outward is right
            en = np.stack([edge_vec[:, 1], -edge_vec[:, 0]], axis=1)
            edge_normal = en / np.linalg.norm(en, axis=1, keepdims=True)
            for name, value in (
                ("polygon", verts),
                # boundary_probe's tables: one float row per edge,
                # (vy, vz, ey, ez, |e|^2 floored at 1e-30, ny, nz), and the
                # candidate edges of each grid cell
                ("_edge_rows", [
                    (vy, vz, ey, ez, max(ey * ey + ez * ez, 1e-30), ny, nz)
                    for (vy, vz), (ey, ez), (ny, nz) in
                    zip(verts.tolist(), edge_vec.tolist(), edge_normal.tolist())
                ]),
                ("_edge_grid", _candidate_grid(verts, edge_vec)),
            ):
                object.__setattr__(self, name, value)
        cof = self.cof_offset
        if not (np.isfinite(cof).all() and boundary_probe(self, PlanarPose(), cof)[0] < 0.0):
            raise ValueError(
                f"shape {self.name!r}: cof_offset must be finite and inside the outline"
            )
        # push_dynamics' contact-matrix constants: a = 1 / f_max^2,
        # b = 1 / m_max^2, the CoF's floats, and the (cos, sin) of the
        # friction cone's edges at +-atan(mu) (+0.0 and -0.0 give cones whose
        # sines differ in sign); and whether the outline is convex, which
        # simulate_tap's free-space certificate reads
        try:
            a, b = 1.0 / self.f_max**2, 1.0 / self.m_max**2
        except (OverflowError, ZeroDivisionError):
            a = b = 0.0
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(
                f"shape {self.name!r}: f_max and m_max must be finite, with squares that "
                "neither overflow nor underflow"
            )
        phi = math.atan(self.mu_contact)
        for name, value in (
            ("_inv_f2", a),
            ("_inv_m2", b),
            ("_cof", (float(cof[0]), float(cof[1]))),
            ("_cone", (math.cos(phi), math.sin(phi), math.cos(-phi), math.sin(-phi))),
            ("_convex", convex),
        ):
            object.__setattr__(self, name, value)

    @property
    def edge_normals(self) -> np.ndarray:
        """Outward unit normals of the polygon edges (object frame)."""
        if self.radius is not None:
            raise ValueError(f"shape {self.name!r}: circles have no edges")
        return np.array([row[5:] for row in self._edge_rows])

    def max_extent(self) -> float:
        """Largest distance from the object origin to the outline."""
        if self.radius is not None:
            return float(self.radius)
        return float(np.max(np.linalg.norm(self.polygon, axis=1)))


# ---------------------------------------------------------------------------
# contact geometry kernel
# ---------------------------------------------------------------------------

def boundary_probe(shape: ObjectShape, pose: PlanarPose, p_work) -> tuple:
    """Nearest boundary point of the posed shape to a planar query point.

    Returns (signed_distance, point, outward_normal, feature) in the work
    frame. The signed distance is negative when the query lies inside the
    outline. Feature ids are ("edge", i), ("vertex", i) or ("arc", 0).

    Numpy call overhead dominates on 2-vectors, so the probe runs on Python
    floats and gives float pairs: it finds the point and normal in the
    object frame and rotates them into the work frame. A polygon's nearest
    edge is searched among the few candidates that the shape's grid lists
    for the query's cell (every edge outside the grid). A query so far from
    a polygon that its squared distance overflows is rejected.
    """
    y, z = float(p_work[0]), float(p_work[1])
    if not (math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"boundary_probe: p_work must be finite, got ({y!r}, {z!r})")
    y0, z0, alpha = pose
    a = math.radians(alpha)
    c, s = math.cos(a), math.sin(a)
    dy = y - y0
    dz = z - z0
    qy, qz = c * dy + s * dz, -s * dy + c * dz

    if shape.radius is not None:
        d = math.hypot(qy, qz)
        ny, nz = (1.0, 0.0) if d < 1e-12 else (qy / d, qz / d)
        py, pz = ny * shape.radius, nz * shape.radius
        sd = d - shape.radius
        feature = ("arc", 0)
    else:
        rows = shape._edge_rows
        gy0, gz0, cells_y, cells_z, cells = shape._edge_grid
        gy, gz = (qy - gy0) / _GRID_CELL_MM, (qz - gz0) / _GRID_CELL_MM
        if 0.0 <= gy < cells_y and 0.0 <= gz < cells_z:
            candidates = cells[int(gy) * cells_z + int(gz)]
        else:
            candidates = range(len(rows))
        # a strict < over ascending edge indices keeps the first of tied
        # minima; the residual keeps the form q - (v + t e): near-ties between
        # the two edges at a shared vertex are decided by its exact rounding
        best = math.inf
        for j in candidates:
            vy, vz, ey, ez, len2, _, _ = rows[j]
            t = ((qy - vy) * ey + (qz - vz) * ez) / len2
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            ry = qy - (vy + t * ey)
            rz = qz - (vz + t * ez)
            d2 = ry * ry + rz * rz
            if d2 < best:
                best, i, ti = d2, j, t
        if best == math.inf:
            raise ValueError(
                f"boundary_probe: p_work ({y!r}, {z!r}) is too far from shape "
                f"{shape.name!r}: its squared distance overflows"
            )
        v0y, v0z, e0y, e0z, _, n0y, n0z = rows[i]
        py, pz = v0y + ti * e0y, v0z + ti * e0z
        ry, rz = qy - py, qz - pz
        dist = math.sqrt(ry * ry + rz * rz)

        # the nearest feature decides the side: the outward edge normal, or at
        # a vertex the sum of its two edges' normals (the 2-D pseudonormal)
        eps = 1e-9
        if eps < ti < 1.0 - eps:
            feature = ("edge", i)
            ny, nz = n0y, n0z
            inside = ry * ny + rz * nz < 0.0
        else:
            vi = i if ti <= eps else (i + 1) % len(rows)
            feature = ("vertex", vi)
            row, prev = rows[vi], rows[vi - 1]
            dvy, dvz = qy - row[0], qz - row[1]
            by = prev[5] + row[5]
            bz = prev[6] + row[6]
            inside = dvy * by + dvz * bz < 0.0
            nv = math.hypot(dvy, dvz)
            if nv < 1e-12:
                # query sits on the vertex: fall back to the outward bisector
                nb = max(math.hypot(by, bz), 1e-12)
                ny, nz = by / nb, bz / nb
            elif inside:
                ny, nz = -dvy / nv, -dvz / nv
            else:
                ny, nz = dvy / nv, dvz / nv
        sd = -dist if inside else dist

    # back into the work frame, by the c, s above
    return (sd, (y0 + (c * py - s * pz), z0 + (s * py + c * pz)),
            (c * ny - s * nz, s * ny + c * nz), feature)


# ---------------------------------------------------------------------------
# built-in shape catalog
# ---------------------------------------------------------------------------

def _mean_support_radius(verts: np.ndarray) -> float:
    """Mean distance of the support area from the origin (1 mm grid integral).

    The grid keeps its vectorised crossing-number mask: probing its points
    one at a time would add most of a second to building the catalog.
    """
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    ys = np.arange(lo[0] + 0.5, hi[0], 1.0)
    zs = np.arange(lo[1] + 0.5, hi[1], 1.0)
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
    circle (35 mm radius). Non-convex: l_shape (54 mm L with a 17 mm notch)
    and mug (26 mm disc with a handle tab). All outlines are centred on
    their area centroid, which is also the centre of friction.
    """
    return dict(_catalog())


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------

class WorldState(NamedTuple):
    """Simulator ground truth: object and pusher planar poses, and the
    ContactState of the last substep that ran there (None if none has)."""

    object_pose: PlanarPose
    pusher_pose: PlanarPose
    contact: object = None
