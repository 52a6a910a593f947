"""Frame-to-frame registration of lifted graphs into frame-0 coordinates."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .compact import MatchParams, nearest, static_index
from .graph import SceneGraph25D, SceneNode
from .lift import RigidTransform, estimate_rigid


def estimate_frame_transforms(graph: SceneGraph25D, gamma: float = 0.5) -> list[RigidTransform]:
    """Cumulative transforms mapping each frame's coordinates into frame 0's.

    Consecutive-frame static correspondences feed a least-squares rigid fit;
    pairs with too few matches fall back to the identity, keeping the chain
    intact.
    """
    params = MatchParams(gamma=gamma, delta=1)
    index = static_index(graph)
    spans = [index.rows(fs.frame_index, fs.frame_index + 1) for fs in graph.frames]
    # each static occurrence's candidates: the static occurrences of the previous frame
    lo = np.zeros(len(index.ids), dtype=np.int64)
    hi = np.zeros(len(index.ids), dtype=np.int64)
    for (plo, phi), (a, b) in zip(spans, spans[1:]):
        lo[a:b], hi[a:b] = plo, phi
    matches = nearest(index, index, lo, hi, params.gamma)
    transforms = [RigidTransform.identity()]
    for a, b in spans[1:]:
        # correspondences cur -> prev: each static node and its nearest candidate in prev
        found = matches[a:b]
        src = index.centroids[a:b][found >= 0]
        dst = index.centroids[found[found >= 0]]
        step = estimate_rigid(src, dst)  # frame cur -> frame prev
        transforms.append(transforms[-1].compose(step))
    return transforms


def register_frames(graph: SceneGraph25D, gamma: float = 0.5) -> SceneGraph25D:
    """Express every node's 3D centroid in frame 0's coordinate system.

    Both static and dynamic centroids are transformed; boxes, features, and
    timestamps are untouched. The transform chain links consecutive frames.
    """
    if len(graph.frames) <= 1:
        return graph
    transforms = estimate_frame_transforms(graph, gamma=gamma)
    position = {fs.frame_index: k for k, fs in enumerate(graph.frames)}
    nodes = list(graph.nodes.values())
    k = [position[n.source_frames[0]] for n in nodes]
    rotation = np.stack([t.rotation for t in transforms])[k]
    translation = np.stack([t.translation for t in transforms])[k]
    points = np.array([n.centroid3d for n in nodes], dtype=np.float64).reshape(-1, 3)
    # a (1, 3) @ (3, 3) product per point rounds as RigidTransform.apply on one
    # point does; one (n, 3) @ (3, 3) product does not
    moved = (points[:, None, :] @ rotation.transpose(0, 2, 1))[:, 0, :] + translation
    registered = {
        nid: SceneNode(
            node_id=n.node_id,
            class_id=n.class_id,
            feature=n.feature,
            bbox=n.bbox,
            centroid3d=centroid,
            timestamps=n.timestamps,
            source_frames=n.source_frames,
            motion_feature=n.motion_feature,
        )
        for (nid, n), centroid in zip(graph.nodes.items(), moved)
    }
    return replace(graph, nodes=registered)
