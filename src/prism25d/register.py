"""Frame-to-frame registration of lifted graphs into frame-0 coordinates."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .compact import MatchParams, criterion
from .graph import SceneGraph25D, SceneNode
from .lift import RigidTransform, estimate_rigid


def _pair_correspondences(
    graph: SceneGraph25D, prev_ids: list[int], cur_ids: list[int], params: MatchParams
) -> tuple[np.ndarray, np.ndarray]:
    """Static-node correspondences (cur -> prev): criterion-passing nearest centroids."""
    src, dst = [], []
    for vid in cur_ids:
        v = graph.nodes[vid]
        best = None
        for wid in prev_ids:
            w = graph.nodes[wid]
            if not criterion(v, w, params):
                continue
            dist = float(np.linalg.norm(v.centroid3d - w.centroid3d))
            if best is None or (dist, wid) < best:
                best = (dist, wid)
        if best is not None:
            src.append(v.centroid3d)
            dst.append(graph.nodes[best[1]].centroid3d)
    if not src:
        return np.zeros((0, 3)), np.zeros((0, 3))
    return np.stack(src), np.stack(dst)


def estimate_frame_transforms(graph: SceneGraph25D, gamma: float = 0.5) -> list[RigidTransform]:
    """Cumulative transforms mapping each frame's coordinates into frame 0's.

    Consecutive-frame static correspondences feed a least-squares rigid fit;
    pairs with too few matches fall back to the identity, keeping the chain
    intact.
    """
    params = MatchParams(gamma=gamma, delta=1)
    static_by_frame = [
        [nid for nid in fs.node_ids if nid in graph.static_nodes] for fs in graph.frames
    ]
    transforms = [RigidTransform.identity()]
    for k in range(1, len(graph.frames)):
        src, dst = _pair_correspondences(graph, static_by_frame[k - 1], static_by_frame[k], params)
        step = estimate_rigid(src, dst)  # frame k -> frame k-1
        transforms.append(transforms[k - 1].compose(step))
    return transforms


def register_frames(graph: SceneGraph25D, gamma: float = 0.5) -> SceneGraph25D:
    """Express every node's 3D centroid in frame 0's coordinate system.

    Both static and dynamic centroids are transformed; boxes, features, and
    timestamps are untouched. The transform chain links consecutive frames.
    """
    if len(graph.frames) <= 1:
        return graph
    transforms = estimate_frame_transforms(graph, gamma=gamma)
    by_frame = {fs.frame_index: t for fs, t in zip(graph.frames, transforms)}
    nodes: dict[int, SceneNode] = {}
    for nid, node in graph.nodes.items():
        t = by_frame[node.source_frames[0]]
        nodes[nid] = replace(node, centroid3d=t.apply(node.centroid3d))
    return replace(graph, nodes=nodes)
