"""Record builders and reference implementations shared by the test modules."""

import json
import math
from types import SimpleNamespace

import numpy as np

from prism25d.compact import MatchParams
from prism25d.graph import SceneGraph25D, _ints, _matrix
from prism25d.numcore import Affine, Tensor
from prism25d import synthworld as sw


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


def generate_world(spec):
    """A built world's detection records and ground truth."""
    world = sw.build_world(spec)
    return sw.world_detections(world), sw.world_truth(world)


def affine_identity(dim):
    """Exact-identity affine layer, a neutral element for the learned maps."""
    return Affine(Tensor(np.eye(dim), requires_grad=True), Tensor(np.zeros((dim, 1)), requires_grad=True))


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


# -- a graph's rows one node at a time, and hand-built graphs -------------------


def node(graph, nid):
    """Node `nid` of a graph, with the fields of its graph-file entry."""
    row = int(np.searchsorted(graph.nodes, nid))
    lo, hi = graph.obs_start[row], graph.obs_start[row + 1]
    dynamic = np.flatnonzero(~graph.static)
    return SimpleNamespace(
        node_id=graph.nodes[row:row + 1].tolist()[0],
        class_id=graph.class_ids[row:row + 1].tolist()[0],
        feature=graph.features[row],
        bbox=tuple(graph.boxes[row].tolist()),
        centroid3d=graph.centroids[row],
        source_frames=graph.obs_frames[lo:hi].tolist(),
        motion_feature=None if graph.static[row] else graph.motions[np.searchsorted(dynamic, row)],
    )


def listings(graph):
    """The graph's frame listings as (frame index, node ids) pairs, in order."""
    out = {}
    for frame, nid in zip(graph.listed_frames.tolist(), graph.nodes[graph.listed_rows].tolist()):
        out.setdefault(frame, []).append(nid)
    return list(out.items())


def table(nodes, dynamic=(), frames=None, video_id="t", max_frames=10, registry_digest=None):
    """A graph from `node`-like records, unchecked. `frames` holds (frame index, node ids)
    pairs; by default each node is listed in each of its source frames, in `nodes` order."""
    if frames is None:
        by_frame = {}
        for n in nodes:
            for f in dict.fromkeys(n.source_frames):
                by_frame.setdefault(f, []).append(n.node_id)
        frames = sorted(by_frame.items())
    rows = sorted(nodes, key=lambda n: n.node_id)
    row_of = {n.node_id: r for r, n in enumerate(rows)}
    return SceneGraph25D(
        video_id=video_id,
        max_frames=max_frames,
        nodes=_ints([n.node_id for n in rows]),
        class_ids=_ints([n.class_id for n in rows]),
        static=np.array([n.node_id not in dynamic for n in rows], dtype=bool),
        features=_matrix([n.feature for n in rows]),
        motions=_matrix([n.motion_feature for n in rows if n.node_id in dynamic]),
        boxes=np.array([n.bbox for n in rows], dtype=np.float64).reshape(-1, 4),
        centroids=np.array([n.centroid3d for n in rows], dtype=np.float64).reshape(-1, 3),
        obs_start=np.cumsum([0] + [len(n.source_frames) for n in rows]),
        obs_frames=_ints([f for n in rows for f in n.source_frames]),
        listed_frames=_ints([f for f, ids in frames for _ in ids]),
        listed_rows=np.array([row_of[nid] for _, ids in frames for nid in ids], dtype=np.int64),
        registry_digest=registry_digest,
    )


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
        w = node(graph, wid)
        if not criterion(v, w, params):
            continue
        key = (float(np.linalg.norm(v.centroid3d - w.centroid3d)), wid)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def oracle_static_by_frame(graph):
    static = set(graph.nodes[graph.static].tolist())
    return {frame: [nid for nid in ids if nid in static] for frame, ids in listings(graph)}


def oracle_ancestors(graph, params):
    """build_ancestors with a per-node search over the previous delta frames."""
    static_by_frame = oracle_static_by_frame(graph)
    parent = {}
    for frame, _ in listings(graph):
        for nid in static_by_frame[frame]:
            v = node(graph, nid)
            frames = range(v.source_frames[0] - params.delta, v.source_frames[0])
            candidates = [w for f in frames for w in static_by_frame.get(f, ())]
            m = oracle_nearest(v, graph, candidates, params)
            parent[nid] = parent[m] if m is not None else nid
    return parent


def oracle_correspondences(graph, gamma):
    """Per consecutive frame pair, the (src, dst) centroid lists registration fits."""
    params = MatchParams(gamma=gamma, delta=1)
    static_by_frame = oracle_static_by_frame(graph)
    frames = [frame for frame, _ in listings(graph)]
    pairs = []
    for prev, cur in zip(frames, frames[1:]):
        src, dst = [], []
        for vid in static_by_frame[cur]:
            wid = oracle_nearest(node(graph, vid), graph, static_by_frame[prev], params)
            if wid is not None:
                src.append(node(graph, vid).centroid3d)
                dst.append(node(graph, wid).centroid3d)
        pairs.append((np.array(src).reshape(-1, 3), np.array(dst).reshape(-1, 3)))
    return pairs


# -- one loop per equivalence class: the reference for compact's segment merge --


def _merge_class(members, root):
    if any(n.class_id != root.class_id for n in members):
        raise AssertionError("equivalence class mixes class ids; criterion violated")
    feats = np.stack([n.feature for n in members])  # members sorted by node_id
    return SimpleNamespace(
        node_id=root.node_id,
        class_id=root.class_id,
        feature=feats.mean(axis=0),
        bbox=root.bbox,
        centroid3d=root.centroid3d.copy(),
        source_frames=sorted(f for n in members for f in n.source_frames),
        motion_feature=None,
    )


def oracle_merge_static(graph, ancestors):
    """merge_static one equivalence class and one frame listing at a time."""
    nodes = {nid: node(graph, nid) for nid in graph.nodes.tolist()}
    dynamic = set(graph.nodes[~graph.static].tolist())
    classes = {}
    for nid in sorted(ancestors):
        classes.setdefault(ancestors[nid], []).append(nid)
    merged = [_merge_class([nodes[m] for m in members], nodes[root]) for root, members in classes.items()]
    remap = {nid: ancestors.get(nid, nid) for nid in nodes}
    frames = []
    for frame, ids in listings(graph):
        seen = []
        for nid in ids:
            if remap[nid] not in seen:
                seen.append(remap[nid])
        frames.append((frame, seen))
    return table(merged + [nodes[nid] for nid in dynamic], dynamic=dynamic, frames=frames,
                 video_id=graph.video_id, max_frames=graph.max_frames, registry_digest=graph.registry_digest)


# -- pairwise kernel: the reference for attention.kernel_matrix -----------------


def min_time_gap(ta, tb):
    """Smallest |t - t'| across the two observation lists.

    Unmerged nodes carry one time each, so this reduces to the plain
    temporal distance; merged static nodes contribute their closest sighting.
    """
    return float(np.abs(np.asarray(ta)[:, None] - np.asarray(tb)[None, :]).min())


def kernel(v, w, sigma_s, sigma_t, max_frames):
    """Spatio-temporal proximity of two nodes in (0, 1]; 1 exactly when v and w coincide.
    A node's times are its source frames / max_frames."""
    d2 = float(np.sum((v.centroid3d - w.centroid3d) ** 2))
    dt = min_time_gap(np.asarray(v.source_frames) / max_frames, np.asarray(w.source_frames) / max_frames)
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


# -- the world sampler one candidate at a time: the reference for synthworld's arrays ----


def oracle_static_layout(spec, rng):
    """Static positions drawn one candidate at a time, each taken when it lies at least
    `static_separation` from every object placed before it; None when 80 fail."""
    half = sw._placement_box(spec)
    pts = []
    for _ in range(spec.n_static):
        for _ in range(80):
            p = rng.uniform(-half, half)
            if all(np.linalg.norm(p - q) >= spec.static_separation for q in pts):
                pts.append(p)
                break
        else:
            return None
    return np.stack(pts)


def oracle_norms(d):
    """np.linalg.norm of each vector along the last axis, one at a time: a trajectory's
    start check measured with it takes one distance per static object."""
    d = np.asarray(d)
    return np.array([np.linalg.norm(v) for v in d.reshape(-1, 3)]).reshape(d.shape[:-1])


def oracle_motion_feature(track, t, d_a):
    """The motion feature of a track at frame t: its step into t (frame 0 takes frame 1's,
    a one-frame track none), then the step's length."""
    if track.shape[0] == 1:
        vel = np.zeros(3)
    elif t == 0:
        vel = track[1] - track[0]
    else:
        vel = track[t] - track[t - 1]
    out = np.zeros(d_a)
    out[:3] = vel
    out[3] = np.linalg.norm(vel)
    return out


def oracle_detections(world):
    """A noiseless world's detection records, built one detection at a time."""
    spec = world.spec
    classes = world.static_classes + world.dynamic_classes
    features = np.concatenate([world.static_features, world.dynamic_features])
    return [
        {"video_id": spec.video_id, "frame_index": t, "class_id": cls,
         "bbox": world.boxes[t, n].tolist(), "depth": float(world.depths[t, n]),
         "feature": features[n].tolist(),
         "motion_feature": None if n < spec.n_static else oracle_motion_feature(
             world.dynamic_tracks[n - spec.n_static], t, spec.d_a).tolist()}
        for t in range(spec.n_frames) for n, cls in enumerate(classes)
    ]
