"""Frame-to-frame registration of lifted graphs into frame-0 coordinates."""

from __future__ import annotations

from copy import copy

import numpy as np

from .compact import MatchParams, nearest, static_index
from .graph import SceneGraph25D
from .lift import fit_rigid


def frame_correspondences(graph: SceneGraph25D, gamma: float) -> tuple[np.ndarray, ...]:
    """Every consecutive frame pair's static correspondences, as fit_rigid takes them:
    src (m, 3), dst (m, 3) and counts (pairs,). Pair i's counts[i] rows hold the static
    nodes of frame i + 1 that have a nearest candidate among the static nodes of
    frame i, in src, and those candidates, in dst.
    """
    gamma = MatchParams(gamma=gamma, delta=1).gamma  # checks gamma
    index, frames = static_index(graph), graph.frames
    spans = np.stack([np.searchsorted(index.frames, frames, side) for side in ("left", "right")], axis=1)
    prev, cur = spans[:-1], spans[1:]
    sizes = cur[:, 1] - cur[:, 0]
    pair = np.repeat(np.arange(len(cur)), sizes)
    rows = np.arange(len(pair)) + np.repeat(cur[:, 0] - (np.cumsum(sizes) - sizes), sizes)
    # each static occurrence's candidates: the static occurrences of the previous frame
    lo, hi = np.zeros((2, len(index.rows)), dtype=np.int64)
    lo[rows], hi[rows] = prev[pair].T
    matches = nearest(index, index, lo, hi, gamma)[rows]
    found = matches >= 0
    counts = np.bincount(pair[found], minlength=len(cur))
    return index.centroids[rows[found]], index.centroids[matches[found]], counts


def estimate_frame_transforms(
    graph: SceneGraph25D, gamma: float = MatchParams.gamma
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative transforms mapping each frame's coordinates into frame 0's: (frames, 3, 3)
    rotations and (frames, 3) translations, frame 0's the identity.

    Consecutive-frame static correspondences feed one stacked least-squares rigid
    fit per correspondence count; pairs with too few matches fall back to the
    identity, keeping the chain intact.
    """
    step_r, step_t = fit_rigid(*frame_correspondences(graph, gamma))  # frame cur -> prev
    rotations = np.tile(np.eye(3), (len(step_r) + 1, 1, 1))
    translations = np.zeros((len(step_r) + 1, 3))
    for k, (r, t) in enumerate(zip(step_r, step_t), start=1):  # frame k -> k - 1, then k - 1 -> 0
        rotations[k] = rotations[k - 1] @ r
        translations[k] = rotations[k - 1] @ t + translations[k - 1]
    return rotations, translations


def register_frames(graph: SceneGraph25D, gamma: float = MatchParams.gamma) -> SceneGraph25D:
    """Express every node's 3D centroid in frame 0's coordinate system.

    Both static and dynamic centroids are transformed; boxes, features, and
    timestamps are untouched. The transform chain links consecutive frames.
    """
    frames = graph.frames
    if len(frames) <= 1:
        return graph
    rotations, translations = estimate_frame_transforms(graph, gamma=gamma)
    k = np.searchsorted(frames, graph.obs_frames[graph.obs_start[:-1]])  # each row's first frame
    # a (1, 3) @ (3, 3) product per point rounds as one point's p @ R.T does; one
    # (n, 3) @ (3, 3) product does not
    registered = copy(graph)
    registered.centroids = (graph.centroids[:, None, :] @ rotations[k].transpose(0, 2, 1))[:, 0, :]
    registered.centroids += translations[k]
    return registered
