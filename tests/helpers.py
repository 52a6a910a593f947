"""Record builders and reference implementations shared by the test modules."""

import json

import numpy as np

from prism25d.compact import MatchParams, criterion
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


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


# -- per-candidate merge search: the reference for compact.nearest -------------


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
