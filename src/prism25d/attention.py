"""Graph encoders: multi-head attention, spatio-temporal kernel, hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ValidationError
from .graph import SceneGraph25D, SceneNode
from .numcore import MlpParams, Tensor

DEFAULT_BANDWIDTHS = (0.01, 0.1, 1.0, 10.0)


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth hierarchy plus head/latent dimensions of the encoder."""

    levels: tuple[tuple[float, float], ...]  # (sigma_s, sigma_t) per level
    heads: int = 4
    latent_dim: int = 32

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValidationError("kernel hierarchy needs at least one level")
        for sigma_s, sigma_t in self.levels:
            if sigma_s <= 0 or sigma_t <= 0:
                raise ValidationError("kernel bandwidths must be positive")
        if self.heads < 1 or self.latent_dim % self.heads != 0:
            raise ValidationError(
                f"latent_dim {self.latent_dim} must divide evenly into {self.heads} heads"
            )

    @property
    def r_k(self) -> int:
        return self.latent_dim // self.heads


@dataclass
class NodeFeatureMatrix:
    """Latent node features as columns, with each node's geometry alongside."""

    features: Tensor  # (r, n)
    positions: np.ndarray  # (n, 3)
    time_obs: list[np.ndarray]  # per node, sorted observation times
    node_ids: list[int]  # ascending

    @property
    def count(self) -> int:
        return len(self.node_ids)


@dataclass
class NodeInputs:
    """Raw per-graph constants feeding the projection MLPs."""

    static_cols: np.ndarray  # (d_o, n_s), columns in ascending static node id
    dynamic_cols: np.ndarray  # (d_o + d_a, n_d)
    perm: np.ndarray  # reorders [static | dynamic] columns into ascending node id
    positions: np.ndarray
    time_obs: list[np.ndarray]
    node_ids: list[int]


def node_inputs(graph: SceneGraph25D) -> NodeInputs:
    all_ids = sorted(graph.nodes)
    static_ids = sorted(graph.static_nodes)
    dynamic_ids = sorted(graph.dynamic_nodes)
    for nid in dynamic_ids:
        if graph.nodes[nid].motion_feature is None:
            raise ValidationError(f"dynamic node {nid} lacks a motion feature")

    def cols(ids, pick):
        if not ids:
            return np.zeros((0, 0))
        return np.stack([pick(graph.nodes[i]) for i in ids], axis=1)

    order = {nid: i for i, nid in enumerate(static_ids + dynamic_ids)}
    return NodeInputs(
        static_cols=cols(static_ids, lambda n: n.feature),
        dynamic_cols=cols(dynamic_ids, lambda n: n.combined_feature),
        perm=np.array([order[nid] for nid in all_ids], dtype=np.int64),
        positions=np.stack([graph.nodes[i].centroid3d for i in all_ids])
        if all_ids
        else np.zeros((0, 3)),
        time_obs=[np.asarray(graph.nodes[i].timestamps, dtype=np.float64) for i in all_ids],
        node_ids=all_ids,
    )


def project_inputs(inputs: NodeInputs, mlp_s: MlpParams, mlp_d: MlpParams) -> NodeFeatureMatrix:
    blocks = []
    if inputs.static_cols.shape[1] > 0:
        blocks.append(nc.mlp_forward(mlp_s, Tensor(inputs.static_cols)))
    if inputs.dynamic_cols.shape[1] > 0:
        blocks.append(nc.mlp_forward(mlp_d, Tensor(inputs.dynamic_cols)))
    if not blocks:
        raise ValidationError("graph has no nodes to project")
    stacked = blocks[0] if len(blocks) == 1 else nc.concat(blocks, axis=1)
    if mlp_s.out_dim != mlp_d.out_dim:
        raise ValidationError("static and dynamic projections disagree on latent width")
    return NodeFeatureMatrix(
        features=nc.gather_cols(stacked, inputs.perm),
        positions=inputs.positions,
        time_obs=inputs.time_obs,
        node_ids=inputs.node_ids,
    )


# ---------------------------------------------------------------------------
# spatio-temporal kernel


def min_time_gap(ta: np.ndarray, tb: np.ndarray) -> float:
    """Smallest |t - t'| across the two observation lists.

    Unmerged nodes carry one timestamp each, so this reduces to the plain
    temporal distance; merged static nodes contribute their closest sighting.
    """
    return float(np.abs(np.asarray(ta)[:, None] - np.asarray(tb)[None, :]).min())


def kernel(v: SceneNode, w: SceneNode, sigma_s: float, sigma_t: float) -> float:
    """Spatio-temporal proximity in (0, 1]; 1 exactly when v and w coincide."""
    d2 = float(np.sum((v.centroid3d - w.centroid3d) ** 2))
    dt = min_time_gap(np.asarray(v.timestamps), np.asarray(w.timestamps))
    return math.exp(-d2 / sigma_s**2 - dt / sigma_t)


def kernel_matrix(
    positions: np.ndarray, time_obs: list[np.ndarray], sigma_s: float, sigma_t: float
) -> np.ndarray:
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)

    if all(t.size == 1 for t in time_obs):
        ts = np.array([t[0] for t in time_obs])
        dt = np.abs(ts[:, None] - ts[None, :])
    else:
        dt = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dt[i, j] = dt[j, i] = min_time_gap(time_obs[i], time_obs[j])
    return np.exp(-d2 / sigma_s**2 - dt / sigma_t)


def kernel_softmax_levels(
    positions: np.ndarray, time_obs: list[np.ndarray], cfg: KernelConfig
) -> list[Tensor]:
    """Row-softmaxed kernel matrices per level; parameter-free, safe to cache."""
    return [
        nc.softmax_rows(Tensor(kernel_matrix(positions, time_obs, s, t))) for s, t in cfg.levels
    ]


# ---------------------------------------------------------------------------
# encoders


@dataclass
class AttentionParams:
    """Q/K/V projections, rows grouped per head (head i owns rows i*r_k:(i+1)*r_k)."""

    wq: Tensor  # (r, r)
    wk: Tensor
    wv: Tensor

    def parameters(self) -> list[Tensor]:
        return [self.wq, self.wk, self.wv]


def attention_init(r: int, rng: np.random.Generator) -> AttentionParams:
    bound = 1.0 / math.sqrt(r)

    def w():
        return Tensor(rng.uniform(-bound, bound, size=(r, r)), requires_grad=True)

    return AttentionParams(w(), w(), w())


def standard_attention(feats: Tensor, params: AttentionParams, heads: int) -> Tensor:
    """Scaled dot-product multi-head self-attention over node columns."""
    r, _ = feats.data.shape
    if r % heads != 0:
        raise ValidationError(f"latent width {r} not divisible by {heads} heads")
    r_k = r // heads
    q = nc.matmul(params.wq, feats)
    k = nc.matmul(params.wk, feats)
    v = nc.matmul(params.wv, feats)
    outs = []
    for i in range(heads):
        lo, hi = i * r_k, (i + 1) * r_k
        qi, ki, vi = nc.rows(q, lo, hi), nc.rows(k, lo, hi), nc.rows(v, lo, hi)
        scores = nc.matmul(nc.transpose(qi), ki) * (1.0 / math.sqrt(r_k))
        outs.append(nc.matmul(vi, nc.transpose(nc.softmax_rows(scores))))
    return nc.concat(outs, axis=0)


def kernel_attention(nodes: NodeFeatureMatrix, value_weights: Tensor, smax: Tensor) -> Tensor:
    """Attention whose mixing weights are one level's row-softmaxed kernel matrix.

    The kernel matrix is shared across heads and row-softmaxed as-is (no
    1/sqrt(r_k) scaling), so each head's output is its row block of
    (W_v F) S^T and the heads need no separate pass.
    """
    return nc.matmul(nc.matmul(value_weights, nodes.features), nc.transpose(smax))


def hierarchical_attention(
    nodes: NodeFeatureMatrix,
    cfg: KernelConfig,
    level_mlps: list[MlpParams],
    value_weights: Tensor,
    smax_levels: list[Tensor],
) -> Tensor:
    """Sum of per-bandwidth kernel attentions, each re-embedded by its own MLP.

    `smax_levels` holds one `kernel_softmax_levels` matrix per level of `cfg`.
    """
    if not len(level_mlps) == len(smax_levels) == len(cfg.levels):
        raise ValidationError(
            f"{len(cfg.levels)} kernel levels but {len(level_mlps)} level MLPs"
            f" and {len(smax_levels)} kernel matrices"
        )
    out = None
    for mlp, smax in zip(level_mlps, smax_levels):
        branch = nc.mlp_forward(mlp, kernel_attention(nodes, value_weights, smax))
        out = branch if out is None else nc.add(out, branch)
    return out


@dataclass
class EncoderParams:
    """All learned pieces of the graph encoder."""

    standard: list[AttentionParams]  # stacked plain-attention blocks
    kernel_values: Tensor  # (r, r) value projection shared by every kernel level
    level_mlps: list[MlpParams]
    comb_mlp: MlpParams  # re-embeds the standard branch before the sum

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, blk in enumerate(self.standard):
            out += [(f"std{i}.wq", blk.wq), (f"std{i}.wk", blk.wk), (f"std{i}.wv", blk.wv)]
        out.append(("kernel.wv", self.kernel_values))
        for j, mlp in enumerate(self.level_mlps):
            for li, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                out += [(f"level{j}.w{li}", w), (f"level{j}.b{li}", b)]
        for li, (w, b) in enumerate(zip(self.comb_mlp.weights, self.comb_mlp.biases)):
            out += [(f"comb.w{li}", w), (f"comb.b{li}", b)]
        return out


def encoder_init(
    cfg: KernelConfig, rng: np.random.Generator, n_standard_layers: int = 1
) -> EncoderParams:
    r = cfg.latent_dim
    bound = 1.0 / math.sqrt(r)
    return EncoderParams(
        standard=[attention_init(r, rng) for _ in range(n_standard_layers)],
        kernel_values=Tensor(rng.uniform(-bound, bound, size=(r, r)), requires_grad=True),
        level_mlps=[nc.mlp_init([r, r], rng) for _ in cfg.levels],
        comb_mlp=nc.mlp_init([r, r], rng),
    )


def standard_stack(feats: Tensor, params: EncoderParams, heads: int) -> Tensor:
    out = feats
    for blk in params.standard:
        out = standard_attention(out, blk, heads)
    return out


def combined_encoding(
    nodes: NodeFeatureMatrix,
    cfg: KernelConfig,
    params: EncoderParams,
    smax_levels: list[Tensor],
) -> Tensor:
    """Hierarchical kernel encoding plus the MLP-re-embedded standard branch."""
    hier = hierarchical_attention(
        nodes, cfg, params.level_mlps, params.kernel_values, smax_levels
    )
    std = nc.mlp_forward(params.comb_mlp, standard_stack(nodes.features, params, cfg.heads))
    return nc.add(hier, std)
