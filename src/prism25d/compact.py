"""Static-node pruning: match criterion, ancestor sweep, and merging."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .graph import SceneGraph25D, run_starts
from .lift import norms


@dataclass(frozen=True)
class MatchParams:
    gamma: float = 0.5  # IoU threshold (strict >); artifact default, CLI-exposed
    delta: int = 3  # look-back window in sampled frame indices

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.delta < 1:
            raise ValidationError(f"delta must be >= 1, got {self.delta}")


def nearest(
    graph: SceneGraph25D, occ: np.ndarray, lo: np.ndarray, hi: np.ndarray, gamma: float
) -> np.ndarray:
    """Table row nearest in 3D to each static occurrence among the occurrences [lo, hi)
    that pass the merge criterion with it (ties to the lower row, so the lower id), or -1
    where none does.

    `occ` holds each occurrence's table row, one per listing of a static node in a frame,
    in listing order: by frame, and within a frame in file order, so the occurrences of
    any frame range are one contiguous range. Works on one (occurrences x widest window)
    block, so memory grows with the window, not with the square of the graph.
    """
    width = int(np.max(hi - lo, initial=0))
    if width == 0:
        return np.full(len(lo), -1, dtype=np.int64)
    cols = lo[:, None] + np.arange(width)
    valid = cols < hi[:, None]
    cand = occ[np.where(valid, cols, 0)]  # padding reads occurrence 0 and is masked out
    a = graph.boxes[occ][:, None, :]
    b = graph.boxes[cand]
    # box IoU, elementwise: an empty intersection divides 0 by a positive union
    iw = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    ih = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    passing = (
        valid
        & (graph.class_ids[cand] == graph.class_ids[occ][:, None])
        & (inter / (area_a + area_b - inter) > gamma)
    )
    # far finite centroids overflow to an infinite distance, which ranks last
    rows, slots = np.nonzero(passing)
    dist = np.full(passing.shape, np.inf)
    with np.errstate(over="ignore"):
        dist[rows, slots] = norms(graph.centroids[occ[rows]] - graph.centroids[cand[rows, slots]])
    best = dist.min(axis=1)
    tied = passing & (dist == best[:, None])
    return np.where(passing.any(axis=1), np.where(tied, cand, np.iinfo(np.int64).max).min(axis=1), -1)


def _roots(graph: SceneGraph25D, params: MatchParams) -> np.ndarray:
    """Each row's root ancestor row, in one forward sweep over frames; a dynamic row is its own.

    Each occurrence's candidates are the static occurrences of frames
    [f0 - delta, f0), f0 being its node's first source frame.
    """
    keep = graph.static[graph.listed_rows]
    occ, frames = graph.listed_rows[keep], graph.listed_frames[keep]
    f0 = graph.obs_frames[graph.obs_start[occ]]
    # frames are >= 0, so a look-back past the latest first frame adds nothing, and could overflow int64
    delta = min(params.delta, int(f0.max(initial=0)))
    matches = nearest(graph, occ, np.searchsorted(frames, f0 - delta), np.searchsorted(frames, f0),
                      params.gamma)
    roots = np.arange(len(graph.nodes))
    roots[occ[matches >= 0]] = matches[matches >= 0]
    while np.any(roots[roots] != roots):  # a match lies in an earlier frame: no cycles
        roots = roots[roots]
    return roots


def build_ancestors(graph: SceneGraph25D, params: MatchParams) -> dict[int, int]:
    """Map each static node id to its root ancestor's id."""
    roots = _roots(graph, params)[graph.static]
    return dict(zip(graph.nodes[graph.static].tolist(), graph.nodes[roots].tolist()))


def _merge(graph: SceneGraph25D, roots: np.ndarray) -> SceneGraph25D:
    """Collapse the rows of each root into the root's row.

    A merged feature is the mean over its members, in ascending node id; a
    merged node keeps its root's box and centroid and every member's observations,
    by frame. A frame lists each merged node once, where it listed its
    first member. Dynamic rows are their own roots and pass through untouched.
    """
    order = np.argsort(roots, kind="stable")  # members in ascending id
    first = run_starts(roots[order])
    kept, sizes = roots[order][first], np.diff(np.append(first, len(order)))
    members, features = graph.features[order], np.zeros((len(kept), graph.features.shape[1]))
    for k in set(sizes.tolist()):  # one stacked mean per class size: each rounds as one class's mean
        of_size = np.flatnonzero(sizes == k)
        features[of_size] = members[first[of_size, None] + np.arange(k)].mean(axis=1)
    n_obs = np.diff(graph.obs_start)
    obs = np.lexsort((graph.obs_frames, np.repeat(roots, n_obs)))
    frames, mapped = graph.listed_frames, roots[graph.listed_rows]
    by_pair = np.lexsort((mapped, frames))
    listing = np.sort(by_pair[run_starts(frames[by_pair], mapped[by_pair])])
    return replace(
        graph,
        nodes=graph.nodes[kept],
        class_ids=graph.class_ids[kept],
        static=graph.static[kept],
        features=features,
        boxes=graph.boxes[kept],
        centroids=graph.centroids[kept],
        obs_start=np.append(0, np.cumsum(np.add.reduceat(n_obs[order], first))),
        obs_frames=graph.obs_frames[obs],
        listed_frames=frames[listing],
        listed_rows=np.searchsorted(kept, mapped[listing]),
    )


def compact(graph: SceneGraph25D, params: MatchParams) -> SceneGraph25D:
    return _merge(graph, _roots(graph, params))


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
    static = sum(np.count_nonzero(a.static) for _, a in pairs)
    dynamic = sum(len(a.nodes) for _, a in pairs) - static
    return {
        "videos": n,
        "full": full / n,
        "static": static / n,
        "dynamic": dynamic / n,
        "reduction_pct": reduction_pct(full, static + dynamic),
    }
