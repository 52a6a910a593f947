"""Pinhole depth lifting and least-squares rigid alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

Bbox = tuple[float, float, float, float]


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise ValidationError(f"focal lengths must be positive and finite, got {self.fx}, {self.fy}")


def default_intrinsics(width: float, height: float) -> Intrinsics:
    """Pseudo-depth has no calibration; any fixed pinhole gives a consistent 3D space."""
    f = float(max(width, height))
    return Intrinsics(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0)


def degenerate_boxes(boxes: np.ndarray) -> np.ndarray:
    """Mask over (..., 4) boxes: True where x1 < x2 and y1 < y2 fails."""
    return ~((boxes[..., 0] < boxes[..., 2]) & (boxes[..., 1] < boxes[..., 3]))


def validate_bbox(bbox: Bbox) -> None:
    if degenerate_boxes(np.asarray(bbox, dtype=np.float64)):
        raise ValidationError(f"degenerate bbox {tuple(bbox)}: requires x1 < x2 and y1 < y2")


def bad_depths(depths: np.ndarray) -> np.ndarray:
    """Mask over depths: True where a depth is not positive and finite."""
    return ~((0.0 < depths) & (depths < np.inf))


def lift_centroid(bbox, depth, intrinsics: Intrinsics) -> np.ndarray:
    """Back-project (..., 4) bbox centers at (...) depths to (..., 3) camera-frame points."""
    boxes = np.asarray(bbox, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    bad = degenerate_boxes(boxes)
    if bad.any():
        validate_bbox(boxes[bad][0].tolist())  # raises, naming the first degenerate box
    bad = bad_depths(depth)
    if bad.any():
        raise ValidationError(f"depth must be positive and finite, got {depth[bad][0]}")
    u = (boxes[..., 0] + boxes[..., 2]) / 2.0
    v = (boxes[..., 1] + boxes[..., 3]) / 2.0
    x = (u - intrinsics.cx) * depth / intrinsics.fx
    y = (v - intrinsics.cy) * depth / intrinsics.fy
    return np.stack([x, y, depth], axis=-1)


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray  # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (..., 3) as R @ p + t."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform applying `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def is_valid(self, tol: float = 1e-9) -> bool:
        r = self.rotation
        return (
            np.abs(r.T @ r - np.eye(3)).max() <= tol
            and abs(np.linalg.det(r) - 1.0) <= tol
        )

    def allclose(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        return (
            np.linalg.norm(self.rotation - other.rotation) <= tol
            and np.linalg.norm(self.translation - other.translation) <= tol
        )


def estimate_rigid(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid fit R @ src + t ~= dst (Kabsch, reflection-corrected).

    Falls back to the identity when fewer than 3 correspondences are given or
    the centered source points are rank-deficient (alignment underdetermined).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape != dst.shape:
        raise ValidationError(f"point lists differ in length: {src.shape[0]} vs {dst.shape[0]}")
    if src.shape[0] < 3:
        return RigidTransform.identity()

    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    a = src - c_src
    b = dst - c_dst
    if np.linalg.matrix_rank(a) < 2:
        return RigidTransform.identity()

    h = a.T @ b
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = c_dst - rot @ c_src
    return RigidTransform(rot, trans)
