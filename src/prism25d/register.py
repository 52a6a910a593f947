"""Frame-to-frame registration of lifted graphs into frame-0 coordinates."""

from __future__ import annotations

from copy import copy

import numpy as np

from .compact import MatchParams, nearest
from .graph import SceneGraph25D
from .lift import fit_rigid


def _correspondences(graph: SceneGraph25D, gamma: float) -> tuple[np.ndarray, ...]:
    """Each listed frame's static correspondences with the listed frame before it, as fit_rigid
    takes them: src (m, 3), dst (m, 3) and counts (frames,). Frame k's counts[k] rows hold the
    static nodes of frame k with a nearest candidate among those of frame k - 1, in src, and
    those candidates, in dst; frame 0 has none, so fit_rigid fits it as the identity."""
    keep, frames = graph.static[graph.listed_rows], graph.frames
    occ, occ_frames = graph.listed_rows[keep], graph.listed_frames[keep]  # the static occurrences
    # static occurrence o of listed frame k[o] has the candidates [starts[k[o] - 1], starts[k[o]])
    k, starts = np.searchsorted(frames, occ_frames), np.searchsorted(occ_frames, frames)
    matches = nearest(graph, occ, starts[np.maximum(k - 1, 0)], starts[k], gamma)
    found = matches >= 0
    counts = np.bincount(k[found], minlength=len(frames))
    return graph.centroids[occ[found]], graph.centroids[matches[found]], counts


def _chains(graphs: list[SceneGraph25D], gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`estimate_frame_transforms` of every graph, end to end over the graphs' F frames: (F, 3, 3)
    rotations, (F, 3) translations and each graph's first frame, with F last. One `fit_rigid` call
    fits each frame's step into the frame before it (the identity for a first frame), and step k
    of the chains turns each frame k's step into its transform to frame 0 in one stacked product."""
    gamma = MatchParams(gamma=gamma, delta=1).gamma  # checks gamma, before any fit
    pairs = [_correspondences(g, gamma) for g in graphs]
    lengths = np.array([len(g.frames) for g in graphs], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    if not pairs:
        return np.zeros((0, 3, 3)), np.zeros((0, 3)), starts
    rotations, translations = fit_rigid(*(np.concatenate(column) for column in zip(*pairs)))
    for k in range(1, int(lengths.max())):  # frame k -> k - 1, then k - 1 -> 0
        cur = starts[:-1][lengths > k] + k
        prev = rotations[cur - 1]
        translations[cur] = (prev @ translations[cur, :, None])[:, :, 0] + translations[cur - 1]
        rotations[cur] = prev @ rotations[cur]
    return rotations, translations, starts


def estimate_frame_transforms(
    graph: SceneGraph25D, gamma: float = MatchParams.gamma
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative transforms mapping each frame's coordinates into frame 0's: (frames, 3, 3)
    rotations and (frames, 3) translations, frame 0's the identity.

    Consecutive-frame static correspondences feed one stacked least-squares rigid
    fit per correspondence count; pairs with too few matches fall back to the
    identity, keeping the chain intact.
    """
    rotations, translations, _ = _chains([graph], gamma)
    return rotations, translations


def register_graphs(graphs: list[SceneGraph25D], gamma: float = MatchParams.gamma) -> list[SceneGraph25D]:
    """`register_frames` of each graph, with one rigid fit and one transform chain for all
    of them; a graph of one frame or none is returned as it is."""
    rotations, translations, starts = _chains(graphs, gamma)  # checks gamma first
    registered = []
    for graph, a, b in zip(graphs, starts[:-1].tolist(), starts[1:].tolist()):
        if b - a > 1:
            # each row's first frame, in the flat frame order
            k = a + np.searchsorted(graph.frames, graph.obs_frames[graph.obs_start[:-1]])
            # a (1, 3) @ (3, 3) product per point rounds as one point's p @ R.T does; one
            # (n, 3) @ (3, 3) product does not
            graph = copy(graph)
            graph.centroids = (graph.centroids[:, None, :] @ rotations[k].transpose(0, 2, 1))[:, 0, :]
            graph.centroids += translations[k]
        registered.append(graph)
    return registered


def register_frames(graph: SceneGraph25D, gamma: float = MatchParams.gamma) -> SceneGraph25D:
    """Express every node's 3D centroid in frame 0's coordinate system.

    Both static and dynamic centroids are transformed; boxes, features and
    source frames are untouched. The transform chain links consecutive frames.
    """
    return register_graphs([graph], gamma)[0]
