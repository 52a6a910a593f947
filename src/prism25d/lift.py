"""Pinhole depth lifting and least-squares rigid alignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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


def bad_depths(depths: np.ndarray) -> np.ndarray:
    """Mask over depths: True where a depth is not positive and finite."""
    return ~((0.0 < depths) & (depths < np.inf))


def lift_centroid(bbox, depth, intrinsics: Intrinsics) -> np.ndarray:
    """Back-project (..., 4) bbox centers at (...) depths to (..., 3) camera-frame points."""
    boxes = np.asarray(bbox, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    bad = degenerate_boxes(boxes)
    if bad.any():
        box = tuple(boxes[bad][0].tolist())  # the first degenerate box
        raise ValidationError(f"degenerate bbox {box}: requires x1 < x2 and y1 < y2")
    bad = bad_depths(depth)
    if bad.any():
        raise ValidationError(f"depth must be positive and finite, got {depth[bad][0]}")
    u = (boxes[..., 0] + boxes[..., 2]) / 2.0
    v = (boxes[..., 1] + boxes[..., 3]) / 2.0
    x = (u - intrinsics.cx) * depth / intrinsics.fx
    y = (v - intrinsics.cy) * depth / intrinsics.fy
    return np.stack([x, y, depth], axis=-1)


def fit_rigid(src: np.ndarray, dst: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fits R @ src + t ~= dst (Kabsch, reflection-corrected): pair i
    holds the next counts[i] rows of the (m, 3) src and dst. Returns (pairs, 3, 3)
    rotations and (pairs, 3) translations.

    A pair falls back to the identity when it has fewer than 3 correspondences, or its
    centered points are not finite, or its centered source points have rank < 2 at
    np.linalg.matrix_rank's default tolerance (alignment underdetermined). The pairs
    of one count form one stack, and each stacked numpy call rounds as per matrix.
    """
    counts = np.asarray(counts, dtype=np.int64)
    rot, trans = np.tile(np.eye(3), (len(counts), 1, 1)), np.zeros((len(counts), 3))
    starts = np.cumsum(counts) - counts
    for k in sorted(set(counts[counts >= 3].tolist())):  # np.unique would import numpy.ma
        pairs = np.flatnonzero(counts == k)
        rows = starts[pairs, None] + np.arange(k)
        p, q = src[rows], dst[rows]  # (g, k, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # such pairs are masked below
            c_p, c_q = p.mean(axis=1), q.mean(axis=1)
            a, b = p - c_p[:, None, :], q - c_q[:, None, :]
            h = a.transpose(0, 2, 1) @ b
        # a non-finite entry of a or b leaves a row or column of h non-finite
        fit = np.isfinite(h).all(axis=(1, 2))
        s = np.linalg.svd(a[fit], compute_uv=False)
        tol = s.max(axis=1, keepdims=True) * (k * np.finfo(np.float64).eps)  # matrix_rank's, as k >= 3
        fit[fit] = np.count_nonzero(s > tol, axis=1) >= 2
        u, _, vt = np.linalg.svd(h[fit])
        v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
        flip = np.tile(np.eye(3), (len(v), 1, 1))  # np.diag([1.0, 1.0, d]) per pair
        flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
        rot[pairs[fit]] = r = v @ flip @ ut
        trans[pairs[fit]] = c_q[fit] - (r @ c_p[fit][:, :, None])[:, :, 0]
    return rot, trans


def estimate_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fit_rigid for one pair of (k, 3) point lists: its (3, 3) rotation and (3,) translation."""
    src, dst = np.asarray(src, dtype=np.float64), np.asarray(dst, dtype=np.float64)
    for name, points in (("src", src), ("dst", dst)):
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"{name} points must have shape (k, 3), got {points.shape}")
    if src.shape != dst.shape:
        raise ValidationError(f"point lists differ in length: {src.shape[0]} vs {dst.shape[0]}")
    rot, trans = fit_rigid(src, dst, [len(src)])
    return rot[0], trans[0]
