"""Static-node pruning: match criterion, ancestor sweep, and merging."""

from __future__ import annotations

from bisect import bisect_left
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


def _ints(values: list[int]) -> np.ndarray:
    """Integers as an int64 array, or as an object array when one does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class StaticIndex:
    """Static node occurrences as arrays, one row per listing of a node in a frame.

    Rows are sorted by frame (stably, so a frame keeps its listing order), and
    the occurrences of any frame range are one contiguous row range.
    """

    ids: list[int]
    class_ids: np.ndarray  # (n,)
    boxes: np.ndarray  # (n, 4)
    centroids: np.ndarray  # (n, 3)
    frames: list[int]  # ascending; a list, so any integer frame index works
    rank: np.ndarray  # (n,) position of each id in ascending id order, for ties

    def rows(self, lo_frame: int, hi_frame: int) -> tuple[int, int]:
        """Row range [lo, hi) of the occurrences in frames lo_frame <= f < hi_frame."""
        return bisect_left(self.frames, lo_frame), bisect_left(self.frames, hi_frame)


def _index(nodes: list[SceneNode], frames: list[int]) -> StaticIndex:
    ids = [n.node_id for n in nodes]
    return StaticIndex(
        ids=ids,
        class_ids=_ints([n.class_id for n in nodes]),
        boxes=np.array([n.bbox for n in nodes], dtype=np.float64).reshape(-1, 4),
        centroids=np.array([n.centroid3d for n in nodes], dtype=np.float64).reshape(-1, 3),
        frames=frames,
        rank=np.argsort(np.argsort(_ints(ids), kind="stable")),  # each id's rank
    )


def static_index(graph: SceneGraph25D) -> StaticIndex:
    occurrences = sorted(
        ((fs.frame_index, nid) for fs in graph.frames for nid in fs.node_ids
         if nid in graph.static_nodes),
        key=lambda occ: occ[0],
    )
    return _index([graph.nodes[nid] for _, nid in occurrences], [f for f, _ in occurrences])


def nearest(
    index: StaticIndex, queries: StaticIndex, lo: np.ndarray, hi: np.ndarray, gamma: float
) -> np.ndarray:
    """Row of `index` nearest in 3D to each query row among its rows [lo, hi) that pass
    the merge criterion (ties to the lower id), or -1 where none does.

    Works on one (queries x widest window) block, so memory grows with the window,
    not with the square of the graph.
    """
    width = int(np.max(hi - lo, initial=0))
    if width == 0:
        return np.full(len(lo), -1, dtype=np.int64)
    cols = lo[:, None] + np.arange(width)
    valid = cols < hi[:, None]
    cols = np.where(valid, cols, 0)  # padding reads row 0 and is masked out
    a = queries.boxes[:, None, :]
    b = index.boxes[cols]
    # iou(), elementwise: an empty intersection divides 0 by a positive union
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    passing = (
        valid
        & (index.class_ids[cols] == queries.class_ids[:, None])
        & (inter / (area_a + area_b - inter) > gamma)
    )
    diff = queries.centroids[:, None, :] - index.centroids[cols]
    # one BLAS dot per pair, as np.linalg.norm takes per vector: a plain sum of
    # squares differs from it in the last bit on about a tenth of vectors
    dist = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    best = np.where(passing, dist, np.inf).min(axis=1)
    tied = passing & (dist == best[:, None])
    pick = np.where(tied, index.rank[cols], len(index.ids)).argmin(axis=1)
    return np.where(passing.any(axis=1), cols[np.arange(len(lo)), pick], -1)


def match(v: SceneNode, graph: SceneGraph25D, params: MatchParams) -> int | None:
    """Nearest candidate for v among static nodes of the previous delta frames."""
    index = static_index(graph)
    f0 = v.source_frames[0]
    lo, hi = index.rows(f0 - params.delta, f0)
    row = nearest(index, _index([v], [f0]), np.array([lo]), np.array([hi]), params.gamma)[0]
    return None if row < 0 else index.ids[row]


def build_ancestors(graph: SceneGraph25D, params: MatchParams) -> dict[int, int]:
    """Map each static node id to its root ancestor's id, in one forward sweep over frames.

    Each occurrence's candidates are the static occurrences of frames
    [f0 - delta, f0), f0 being its node's first source frame.
    """
    index = static_index(graph)
    f0 = [graph.nodes[nid].source_frames[0] for nid in index.ids]
    bounds = {f: index.rows(f - params.delta, f) for f in set(f0)}
    lo, hi = np.array([bounds[f] for f in f0], dtype=np.int64).reshape(-1, 2).T
    matches = nearest(index, index, lo, hi, params.gamma).tolist()
    parent: dict[int, int] = {}
    for nid, m in zip(index.ids, matches):
        parent[nid] = parent[index.ids[m]] if m >= 0 else nid
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
    full = sum(len(b.nodes) for b, _ in pairs)
    static = sum(len(a.static_nodes) for _, a in pairs)
    dynamic = sum(len(a.dynamic_nodes) for _, a in pairs)
    return {
        "videos": n,
        "full": full / n,
        "static": static / n,
        "dynamic": dynamic / n,
        "reduction_pct": reduction_pct(full, static + dynamic),
    }
