"""Static-node pruning: match criterion, ancestor sweep, and merging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import FrameSet, SceneGraph25D, SceneNode
from .lift import Bbox


@dataclass(frozen=True)
class MatchParams:
    gamma: float = 0.5  # IoU threshold (strict >); artifact default, CLI-exposed
    delta: int = 3  # look-back window in sampled frame indices

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.delta < 1:
            raise ValidationError(f"delta must be >= 1, got {self.delta}")


def iou(a: Bbox, b: Bbox) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def criterion(v: SceneNode, w: SceneNode, params: MatchParams) -> bool:
    """Merge candidacy: same class and box IoU strictly above gamma."""
    return v.class_id == w.class_id and iou(v.bbox, w.bbox) > params.gamma


def _static_ids_by_frame(graph: SceneGraph25D) -> dict[int, list[int]]:
    return {
        fs.frame_index: [nid for nid in fs.node_ids if nid in graph.static_nodes]
        for fs in graph.frames
    }


def match(
    v: SceneNode,
    graph: SceneGraph25D,
    params: MatchParams,
    static_by_frame: dict[int, list[int]] | None = None,
) -> int | None:
    """Nearest-3D-centroid candidate for v among static nodes of the previous delta frames.

    Ties in centroid distance break toward the lower node id.
    """
    if static_by_frame is None:
        static_by_frame = _static_ids_by_frame(graph)
    t = v.source_frames[0]
    best: tuple[float, int] | None = None
    for frame in range(t - params.delta, t):
        for wid in static_by_frame.get(frame, ()):
            w = graph.nodes[wid]
            if not criterion(v, w, params):
                continue
            dist = float(np.linalg.norm(v.centroid3d - w.centroid3d))
            key = (dist, wid)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def build_ancestors(graph: SceneGraph25D, params: MatchParams) -> dict[int, int]:
    """Map each static node id to its root ancestor's id, in one forward sweep over frames."""
    static_by_frame = _static_ids_by_frame(graph)
    parent: dict[int, int] = {}
    for fs in graph.frames:
        for nid in static_by_frame[fs.frame_index]:
            m = match(graph.nodes[nid], graph, params, static_by_frame)
            parent[nid] = parent[m] if m is not None else nid
    return parent


def _merge_class(members: list[SceneNode], root: SceneNode) -> SceneNode:
    if any(n.class_id != root.class_id for n in members):
        raise AssertionError("equivalence class mixes class ids; criterion violated")
    obs = sorted(
        (f, t) for n in members for f, t in zip(n.source_frames, n.timestamps)
    )
    feats = np.stack([n.feature for n in members])  # members sorted by node_id
    return SceneNode(
        node_id=root.node_id,
        class_id=root.class_id,
        feature=feats.mean(axis=0),
        bbox=root.bbox,
        centroid3d=root.centroid3d.copy(),
        timestamps=[t for _, t in obs],
        source_frames=[f for f, _ in obs],
        motion_feature=None,
    )


def merge_static(graph: SceneGraph25D, ancestors: dict[int, int]) -> SceneGraph25D:
    """Collapse each static equivalence class into its root-ancestor node.

    Merged features are the unweighted mean over members (ascending node_id);
    the merged centroid is the root's. Dynamic nodes pass through untouched.
    """
    classes: dict[int, list[int]] = {}
    for nid in sorted(ancestors):
        classes.setdefault(ancestors[nid], []).append(nid)

    nodes: dict[int, SceneNode] = {}
    for root_id, member_ids in classes.items():
        members = [graph.nodes[m] for m in member_ids]
        nodes[root_id] = _merge_class(members, graph.nodes[root_id])
    for nid in graph.dynamic_nodes:
        nodes[nid] = graph.nodes[nid]

    remap = {nid: ancestors.get(nid, nid) for nid in graph.nodes}
    frames = []
    for fs in graph.frames:
        seen: list[int] = []
        for nid in fs.node_ids:
            mapped = remap[nid]
            if mapped not in seen:
                seen.append(mapped)
        frames.append(FrameSet(fs.frame_index, seen))

    return SceneGraph25D(
        video_id=graph.video_id,
        max_frames=graph.max_frames,
        nodes=nodes,
        frames=frames,
        static_nodes=set(classes),
        dynamic_nodes=set(graph.dynamic_nodes),
        registry_digest=graph.registry_digest,
    )


def compact(graph: SceneGraph25D, params: MatchParams) -> SceneGraph25D:
    return merge_static(graph, build_ancestors(graph, params))


def reduction_pct(full: float, after: float) -> float:
    if full <= 0:
        return 0.0
    return 100.0 * (1.0 - after / full)


def corpus_stats(pairs: list[tuple[SceneGraph25D, SceneGraph25D]]) -> dict:
    """Per-video average node counts and the corpus-level reduction percentage."""
    if not pairs:
        return {"videos": 0, "full": 0.0, "static": 0.0, "dynamic": 0.0, "reduction_pct": 0.0}
    n = len(pairs)
    full = sum(b.node_count() for b, _ in pairs)
    static = sum(len(a.static_nodes) for _, a in pairs)
    dynamic = sum(len(a.dynamic_nodes) for _, a in pairs)
    return {
        "videos": n,
        "full": full / n,
        "static": static / n,
        "dynamic": dynamic / n,
        "reduction_pct": reduction_pct(full, static + dynamic),
    }
