"""Record builders and reference implementations shared by the test modules."""

import json
import math

import numpy as np

from prism25d.compact import MatchParams
from prism25d.numcore import MlpParams, Tensor


def detection(video_id="v", frame=0, class_id=1, bbox=(10.0, 10.0, 50.0, 50.0),
              depth=2.0, feature=(1.0, 0.0), motion=None):
    return {
        "video_id": video_id,
        "frame_index": frame,
        "class_id": class_id,
        "bbox": list(bbox),
        "depth": depth,
        "feature": list(feature),
        "motion_feature": None if motion is None else list(motion),
    }


def mlp_identity(dim):
    """Single exact-identity layer, a neutral element for the MLP stages."""
    return MlpParams(
        [Tensor(np.eye(dim), requires_grad=True)],
        [Tensor(np.zeros((dim, 1)), requires_grad=True)],
    )


def fd_gradients(f, params, h=1e-5):
    """Central-difference gradients of the scalar-valued f() w.r.t. each parameter:
    the independent oracle for every gradient test."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f().item()
            flat[i] = orig - h
            lo = f().item()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max()) if a.size else 0.0


# Three static boxes a sub-pixel off the image center of the default 256 x 256
# intrinsics, at depths whose sum overflows: every lifted centroid is finite, but
# each frame's mean centroid is not, so registration falls back to the identity.
OVERFLOW_REGISTRY = {"classes": [{"id": 1, "name": "box", "kind": "static"}]}
OVERFLOW_DETECTIONS = [
    detection(frame=f, bbox=bbox, depth=depth)
    for f in range(2)
    for bbox, depth in (((127.0, 127.0, 128.0, 128.0), 1.0e308), ((128.0, 127.0, 129.0, 128.0), 1.7e308),
                        ((127.0, 128.0, 128.0, 129.0), 1.2e308))
]


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


# -- per-candidate merge search: the reference for compact.nearest -------------


def iou(a, b):
    """Intersection over union of two (x1, y1, x2, y2) boxes."""
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


def criterion(v, w, params):
    """Merge candidacy: same class and box IoU strictly above gamma."""
    return v.class_id == w.class_id and iou(v.bbox, w.bbox) > params.gamma


def oracle_nearest(v, graph, candidate_ids, params):
    """Criterion-passing candidate nearest to v in 3D (ties to the lower id), or None,
    one candidate at a time."""
    best = None
    for wid in candidate_ids:
        w = graph.nodes[wid]
        if not criterion(v, w, params):
            continue
        key = (float(np.linalg.norm(v.centroid3d - w.centroid3d)), wid)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def oracle_static_by_frame(graph):
    return {
        fs.frame_index: [nid for nid in fs.node_ids if nid in graph.static_nodes]
        for fs in graph.frames
    }


def oracle_ancestors(graph, params):
    """build_ancestors with a per-node search over the previous delta frames."""
    static_by_frame = oracle_static_by_frame(graph)
    parent = {}
    for fs in graph.frames:
        for nid in static_by_frame[fs.frame_index]:
            v = graph.nodes[nid]
            frames = range(v.source_frames[0] - params.delta, v.source_frames[0])
            candidates = [w for f in frames for w in static_by_frame.get(f, ())]
            m = oracle_nearest(v, graph, candidates, params)
            parent[nid] = parent[m] if m is not None else nid
    return parent


def oracle_correspondences(graph, gamma):
    """Per consecutive frame pair, the (src, dst) centroid lists registration fits."""
    params = MatchParams(gamma=gamma, delta=1)
    static_by_frame = oracle_static_by_frame(graph)
    pairs = []
    for prev, cur in zip(graph.frames, graph.frames[1:]):
        src, dst = [], []
        for vid in static_by_frame[cur.frame_index]:
            wid = oracle_nearest(graph.nodes[vid], graph, static_by_frame[prev.frame_index], params)
            if wid is not None:
                src.append(graph.nodes[vid].centroid3d)
                dst.append(graph.nodes[wid].centroid3d)
        pairs.append((np.array(src).reshape(-1, 3), np.array(dst).reshape(-1, 3)))
    return pairs


# -- pairwise kernel: the reference for attention.kernel_matrix -----------------


def min_time_gap(ta, tb):
    """Smallest |t - t'| across the two observation lists.

    Unmerged nodes carry one timestamp each, so this reduces to the plain
    temporal distance; merged static nodes contribute their closest sighting.
    """
    return float(np.abs(np.asarray(ta)[:, None] - np.asarray(tb)[None, :]).min())


def kernel(v, w, sigma_s, sigma_t):
    """Spatio-temporal proximity of two nodes in (0, 1]; 1 exactly when v and w coincide."""
    d2 = float(np.sum((v.centroid3d - w.centroid3d) ** 2))
    dt = min_time_gap(np.asarray(v.timestamps), np.asarray(w.timestamps))
    return math.exp(-d2 / sigma_s**2 - dt / sigma_t)


# -- rigid transforms, as (rotation (3, 3), translation (3,)) pairs -------------

IDENTITY = (np.eye(3), np.zeros(3))


def is_proper_rotation(r, tol=1e-9):
    return np.abs(r.T @ r - np.eye(3)).max() <= tol and abs(np.linalg.det(r) - 1.0) <= tol


def rigid_allclose(a, b, tol=1e-9):
    return np.linalg.norm(a[0] - b[0]) <= tol and np.linalg.norm(a[1] - b[1]) <= tol


def oracle_rigid(src, dst):
    """One Kabsch fit with one numpy call per step: the reference for lift.fit_rigid."""
    src = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if src.shape[0] < 3:
        return IDENTITY
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    a = src - c_src
    b = dst - c_dst
    s = np.linalg.svd(a, compute_uv=False)  # rank < 2 at np.linalg.matrix_rank's default tolerance
    if np.count_nonzero(s > s.max() * (max(a.shape) * np.finfo(np.float64).eps)) < 2:
        return IDENTITY
    h = a.T @ b
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = c_dst - rot @ c_src
    return rot, trans
