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
    # occurrence o lies in listed frame k[o] and so in pair k[o] - 1; its candidates are the
    # static occurrences of listed frame k[o] - 1, [starts[k[o] - 1], starts[k[o]]), none for k = 0
    k, starts = np.searchsorted(frames, index.frames), np.searchsorted(index.frames, frames)
    matches = nearest(index, index, starts[np.maximum(k - 1, 0)], starts[k], gamma)
    found = matches >= 0
    counts = np.bincount(k[found], minlength=len(frames))[1:]
    return index.centroids[found], index.centroids[matches[found]], counts


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

    Both static and dynamic centroids are transformed; boxes, features and
    source frames are untouched. The transform chain links consecutive frames.
    """
    rotations, translations = estimate_frame_transforms(graph, gamma=gamma)  # checks gamma first
    if len(rotations) <= 1:
        return graph
    k = np.searchsorted(graph.frames, graph.obs_frames[graph.obs_start[:-1]])  # each row's first frame
    # a (1, 3) @ (3, 3) product per point rounds as one point's p @ R.T does; one
    # (n, 3) @ (3, 3) product does not
    registered = copy(graph)
    registered.centroids = (graph.centroids[:, None, :] @ rotations[k].transpose(0, 2, 1))[:, 0, :]
    registered.centroids += translations[k]
    return registered
