"""Frame-to-frame registration of lifted graphs into frame-0 coordinates."""

from __future__ import annotations

from dataclasses import replace

from .compact import MatchParams, _static_ids_by_frame, nearest
from .graph import SceneGraph25D, SceneNode
from .lift import RigidTransform, estimate_rigid


def estimate_frame_transforms(graph: SceneGraph25D, gamma: float = 0.5) -> list[RigidTransform]:
    """Cumulative transforms mapping each frame's coordinates into frame 0's.

    Consecutive-frame static correspondences feed a least-squares rigid fit;
    pairs with too few matches fall back to the identity, keeping the chain
    intact.
    """
    params = MatchParams(gamma=gamma, delta=1)
    static_by_frame = _static_ids_by_frame(graph)
    transforms = [RigidTransform.identity()]
    for prev, cur in zip(graph.frames, graph.frames[1:]):
        # correspondences cur -> prev: each static node and its nearest candidate in prev
        src, dst = [], []
        for vid in static_by_frame[cur.frame_index]:
            wid = nearest(graph.nodes[vid], graph, static_by_frame[prev.frame_index], params)
            if wid is not None:
                src.append(graph.nodes[vid].centroid3d)
                dst.append(graph.nodes[wid].centroid3d)
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
    by_frame = {fs.frame_index: t for fs, t in zip(graph.frames, transforms)}
    nodes: dict[int, SceneNode] = {}
    for nid, node in graph.nodes.items():
        t = by_frame[node.source_frames[0]]
        nodes[nid] = replace(node, centroid3d=t.apply(node.centroid3d))
    return replace(graph, nodes=nodes)
