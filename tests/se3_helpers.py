"""SE(3) helpers the tests check `tacpush.pose_math` with: elementary
rotations, the identity transform, the 4x4 matrix form, the
orthonormality drift of a rotation and the embedding of a planar frame.
The package itself needs none of them."""

import math

import numpy as np

from tacpush.pose_math import Transform


def rot_x(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg: float) -> np.ndarray:
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def identity() -> Transform:
    return Transform(np.eye(3), np.zeros(3))


def matrix(t: Transform) -> np.ndarray:
    """4x4 homogeneous matrix form."""
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


def rotation_drift(t: Transform) -> float:
    """Max-abs deviation of R^T R from identity."""
    d = t.rotation.T @ t.rotation - np.eye(3)
    return float(np.max(np.abs(d)))


def embed(frame) -> Transform:
    """SE(3) transform of a planar frame (c, s, y, z) of
    `tacpush.push_controller`: the pose (0, y, z, alpha, 0, 0), with
    c = cos(alpha) and s = sin(alpha)."""
    c, s, y, z = frame
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return Transform(rotation, np.array([0.0, y, z]))
