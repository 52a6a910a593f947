"""Plain-numpy reference for `prism25d eval`, written apart from the program.

It reads the checkpoint file itself, takes each graph's geometry from the
synthetic world's ground truth (what a correct lift, registration and
compaction of noiseless detections must produce), and recomputes the
encoder, question conditioning and answer scoring with numpy alone. The
eval-long check compares its accuracy and mean rank with the command's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def read_checkpoint(path: Path) -> dict:
    """Header line of JSON, then each parameter as little-endian f64, in header order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        params = {}
        for item in header["params"]:
            shape = tuple(item["shape"])
            count = math.prod(shape)
            params[item["name"]] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return {"config": header["config"], "params": params}


def read_qa(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass
class TrueGraph:
    """A compacted graph as the ground truth dictates it; node order is free."""

    static_feats: np.ndarray  # (d_o, n_static)
    dynamic_feats: np.ndarray  # (d_o + d_a, n_dynamic)
    positions: np.ndarray  # (n, 3), static nodes first
    frames: list[np.ndarray]  # observed frame indices per node, same order
    grid: np.ndarray  # the time of each frame index


def true_graph(world, max_frames: int) -> TrueGraph:
    """Static objects merged over all frames; dynamic objects one node per frame.

    Positions are in frame 0's camera coordinates; time is frame / max_frames.
    The motion feature is the frame-to-frame displacement and its length.
    """
    rot, center = world.camera_rotations[0], world.camera_centers[0]
    spec = world.spec
    every = np.arange(spec.n_frames)
    positions = [(p - center) @ rot for p in world.static_positions]
    frames = [every] * spec.n_static
    dyn_cols = []
    for j, track in enumerate(world.dynamic_tracks):
        for t in range(spec.n_frames):
            vel = track[1] - track[0] if t == 0 else track[t] - track[t - 1]
            motion = np.zeros(spec.d_a)
            motion[:3] = vel
            motion[3] = np.linalg.norm(vel)
            dyn_cols.append(np.concatenate([world.dynamic_features[j], motion]))
            positions.append((track[t] - center) @ rot)
            frames.append(every[t : t + 1])
    return TrueGraph(
        static_feats=np.asarray(world.static_features).T,
        dynamic_feats=np.stack(dyn_cols, axis=1),
        positions=np.stack(positions),
        frames=frames,
        grid=every / max_frames,
    )


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _mlp(params: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    """Affine layers with relu between them and none after the last."""
    n = sum(1 for k in params if k.startswith(prefix + ".w"))
    for i in range(n):
        x = params[f"{prefix}.w{i}"] @ x + params[f"{prefix}.b{i}"]
        if i < n - 1:
            x = np.maximum(x, 0.0)
    return x


def _attend(params: dict, prefix: str, queries: np.ndarray, keys: np.ndarray, heads: int):
    """Multi-head scaled dot-product attention; columns are tokens or nodes."""
    q = params[prefix + ".wq"] @ queries
    k = params[prefix + ".wk"] @ keys
    v = params[prefix + ".wv"] @ keys
    r_k = q.shape[0] // heads
    outs = []
    for h in range(heads):
        rows = slice(h * r_k, (h + 1) * r_k)
        weights = _softmax_rows(q[rows].T @ k[rows] / math.sqrt(r_k))
        outs.append(v[rows] @ weights.T)
    return np.concatenate(outs, axis=0)


def encode(model: dict, graph: TrueGraph) -> np.ndarray:
    cfg, p = model["config"], model["params"]
    feats = np.concatenate(
        [_mlp(p, "mlp_s", graph.static_feats), _mlp(p, "mlp_d", graph.dynamic_feats)], axis=1
    )
    diff = graph.positions[:, None, :] - graph.positions[None, :, :]
    d2 = (diff**2).sum(axis=2)
    # gap[j, f]: time from frame f to node j's nearest observation; dt[i, j]
    # is the smallest gap over node i's observations
    grid = graph.grid
    gap = np.stack([np.abs(grid[:, None] - grid[obs][None, :]).min(axis=1) for obs in graph.frames])
    dt = np.stack([gap[:, obs].min(axis=1) for obs in graph.frames])
    sigma_t = cfg["sigma_s"] if cfg["sigma_t"] is None else cfg["sigma_t"]
    values = p["enc.kernel.wv"] @ feats
    out = 0.0
    for j, (s, t) in enumerate(zip(cfg["sigma_s"], sigma_t)):
        weights = _softmax_rows(np.exp(-d2 / s**2 - dt / t))
        out = out + _mlp(p, f"enc.level{j}", values @ weights.T)
    if not cfg["combine"]:
        return out
    std = feats
    for i in range(cfg["n_standard_layers"]):
        std = _attend(p, f"enc.std{i}", std, std, cfg["heads"])
    return out + _mlp(p, "enc.comb", std)


def evaluate(model: dict, graphs: dict[str, TrueGraph], instances: list[dict]) -> dict:
    """Accuracy and mean 1-based rank of the true answer, ties ranked by index."""
    p, heads = model["params"], model["config"]["heads"]
    emb = p["text.embedding"]
    encoded = {}
    correct, rank_sum = 0, 0
    for inst in instances:
        vid = inst["video_id"]
        if vid not in encoded:
            encoded[vid] = encode(model, graphs[vid])
        question = emb[inst["question"]].T
        q_feats = _attend(p, "text.q", question, question, heads)
        fq = _attend(p, "cross", q_feats, encoded[vid], heads).mean(axis=1)
        cands = [
            _mlp(p, "text.answer", emb[inst["question"] + c].T.mean(axis=1, keepdims=True))[:, 0]
            for c in inst["candidates"]
        ]
        logits = np.stack(cands) @ fq
        gt = inst["gt"]
        correct += int(np.argmax(logits)) == gt
        rank_sum += 1 + int(np.sum(logits > logits[gt])) + int(np.sum(logits[:gt] == logits[gt]))
    n = len(instances)
    return {"accuracy": correct / n, "mean_rank": rank_sum / n}
