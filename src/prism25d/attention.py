"""Graph encoders: multi-head attention, spatio-temporal kernel, hierarchy."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ValidationError
from .graph import SceneGraph25D
from .numcore import Affine, Tensor

DEFAULT_BANDWIDTHS = (0.01, 0.1, 1.0, 10.0)
MASK_LOGIT = -1e30  # additive score mask for pairs that may not attend


# ---------------------------------------------------------------------------
# spatio-temporal kernel


def kernel_distances(
    positions: np.ndarray, time_obs: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared 3D distances and smallest time gaps between every pair of nodes, (n, n) each."""
    diff = positions[:, None, :] - positions[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    # dt[i, j] = min |t - t'| over t in time_obs[i], t' in time_obs[j]: node j's gap to each distinct
    # time, min-reduced over node i's times, in (observations x distinct times or nodes) arrays
    t_all = np.concatenate([np.zeros(0), *time_obs])
    starts = np.cumsum([0] + [t.size for t in time_obs])[:-1]
    distinct = np.array(sorted(set(t_all.tolist())), dtype=np.float64)  # np.unique would import numpy.ma
    gap = np.minimum.reduceat(np.abs(t_all[:, None] - distinct), starts, axis=0).T  # (distinct, n)
    dt = np.minimum.reduceat(gap[np.searchsorted(distinct, t_all)], starts, axis=0)
    return d2, dt


def kernel_matrix(d2: np.ndarray, dt: np.ndarray, sigma_s: float, sigma_t: float) -> np.ndarray:
    """One bandwidth level's kernel over the pairwise distances of `kernel_distances`."""
    return np.exp(-d2 / sigma_s**2 - dt / sigma_t)


def kernel_softmax_levels(
    positions: np.ndarray, time_obs: list[np.ndarray], levels: tuple[tuple[float, float], ...]
) -> list[Tensor]:
    """Row-softmaxed kernel matrix per (sigma_s, sigma_t) level; parameter-free, safe to cache."""
    d2, dt = kernel_distances(positions, time_obs)
    return [nc.softmax_rows(Tensor(kernel_matrix(d2, dt, s, t))) for s, t in levels]


@dataclass
class GraphBundle:
    """A graph's parameter-free encoder inputs, built once and reused by every forward pass."""

    static_cols: np.ndarray  # (d_o, n_s), columns in ascending static node id
    dynamic_cols: np.ndarray  # (d_o + d_a, n_d)
    perm: np.ndarray  # reorders [static | dynamic] columns into ascending node id
    smax: list[Tensor]  # row-softmaxed kernel matrix per level, rows in ascending node id


def _columns(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows.T) if len(rows) else np.zeros((0, 0))


def build_bundles(
    graphs: dict[str, SceneGraph25D], levels: tuple[tuple[float, float], ...]
) -> dict[str, GraphBundle]:
    """One bundle per graph, with a kernel matrix for each (sigma_s, sigma_t) of `levels`;
    a graph without nodes is a ValidationError naming its video."""
    bundles = {}
    for vid, graph in graphs.items():
        if not len(graph.nodes):
            raise ValidationError(f"video {vid!r}: graph has no nodes")
        dynamic = ~graph.static
        if len(graph.motions) != np.count_nonzero(dynamic):
            raise ValidationError("a dynamic node lacks a motion feature")
        # a node's times are its frames / max_frames, each rounded once as Python divides integers:
        # numpy's float division rounds alike on exact floats, integers up to 2**53 (and -2**63,
        # which np.abs leaves negative); split at each node's end, dropping the empty tail
        f, m = graph.obs_frames, graph.max_frames
        exact = f.dtype != object and max(abs(m), np.abs(f).max(initial=0)) <= 2**53
        times = np.split(f / m if exact else np.array([x / m for x in f.tolist()]), graph.obs_start[1:])[:-1]
        bundles[vid] = GraphBundle(
            static_cols=_columns(graph.features[graph.static]),
            dynamic_cols=_columns(np.hstack([graph.features[dynamic], graph.motions])),
            perm=np.argsort(np.argsort(dynamic, kind="stable")),  # static rows, then dynamic ones
            smax=kernel_softmax_levels(graph.centroids, times, levels),
        )
    return bundles


def project_nodes(bundle: GraphBundle, mlp_s: Affine, mlp_d: Affine) -> Tensor:
    """Latent node features as (r, n) columns in ascending node id: static nodes projected
    by `mlp_s`, dynamic nodes (object and motion features) by `mlp_d`."""
    if mlp_s.w.shape[0] != mlp_d.w.shape[0]:
        raise ValidationError("static and dynamic projections disagree on latent width")
    blocks = []
    if bundle.static_cols.shape[1] > 0:
        blocks.append(mlp_s(Tensor(bundle.static_cols)))
    if bundle.dynamic_cols.shape[1] > 0:
        blocks.append(mlp_d(Tensor(bundle.dynamic_cols)))
    if not blocks:
        raise ValidationError("graph has no nodes to project")
    stacked = blocks[0] if len(blocks) == 1 else nc.concat(blocks, axis=1)
    return nc.gather_cols(stacked, bundle.perm)


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

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk), (f"{prefix}.wv", self.wv)]


def attention_init(r: int, rng: np.random.Generator) -> AttentionParams:
    bound = 1.0 / math.sqrt(r)

    def w():
        return Tensor(rng.uniform(-bound, bound, size=(r, r)), requires_grad=True)

    return AttentionParams(w(), w(), w())


def multihead_attention(
    queries: Tensor,
    keys: Tensor,
    params: AttentionParams,
    heads: int,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product multi-head attention of query columns over key (and value) columns.

    All heads run in one pass. The m projected queries are repeated once per
    head and zeroed outside that head's rows, so row block h of the
    (heads * m, n) score matrix holds head h's scores; the attended values
    are masked the same way and the head blocks summed back to (r, m).
    `mask`, an optional constant (m, n) array, is added to every head's
    scores: 0 where a query may attend to a key, MASK_LOGIT where not.
    """
    r, m = queries.data.shape
    if r % heads != 0:
        raise ValidationError(f"latent width {r} not divisible by {heads} heads")
    repeat, head_rows, scaled_rows = head_masks(r, heads, m)
    q = nc.matmul(params.wq, queries)
    k = nc.matmul(params.wk, keys)
    v = nc.matmul(params.wv, keys)
    q_heads = nc.matmul(q, Tensor(repeat)) * Tensor(scaled_rows)
    scores = nc.matmul(nc.transpose(q_heads), k)
    if mask is not None:
        scores = scores + Tensor(np.tile(mask, (heads, 1)))
    attended = nc.matmul(v, nc.transpose(nc.softmax_rows(scores))) * Tensor(head_rows)
    return nc.matmul(attended, Tensor(repeat.T))


@functools.lru_cache(maxsize=32)
def head_masks(r: int, heads: int, m: int) -> tuple[np.ndarray, ...]:
    """`multihead_attention`'s constant masks for m queries: `repeat` (m, heads * m) = [I ... I],
    `head_rows` (r, heads * m) selecting head h's rows in column block h, and `head_rows` times
    the 1/sqrt(r_k) score scaling. Shared between calls, so read-only."""
    r_k = r // heads
    cols = np.arange(heads * m)
    repeat = (np.arange(m)[:, None] == cols % m).astype(float)
    head_rows = (np.arange(r)[:, None] // r_k == cols // m).astype(float)
    masks = (repeat, head_rows, head_rows * (1.0 / math.sqrt(r_k)))
    for a in masks:
        a.flags.writeable = False
    return masks


def kernel_attention(features: Tensor, value_weights: Tensor, smax: Tensor) -> Tensor:
    """Attention whose mixing weights are one level's row-softmaxed kernel matrix.

    The kernel matrix is shared across heads and row-softmaxed as-is (no
    1/sqrt(r_k) scaling), so each head's output is its row block of
    (W_v F) S^T and the heads need no separate pass.
    """
    return nc.matmul(nc.matmul(value_weights, features), nc.transpose(smax))


def hierarchical_attention(
    features: Tensor,
    levels: list[Affine],
    value_weights: Tensor,
    smax_levels: list[Tensor],
) -> Tensor:
    """Sum of per-bandwidth kernel attentions, each re-embedded by its own affine layer.

    `smax_levels` holds one `kernel_softmax_levels` matrix per level layer.
    """
    if len(levels) != len(smax_levels):
        raise ValidationError(f"{len(levels)} level layers but {len(smax_levels)} kernel matrices")
    out = None
    for level, smax in zip(levels, smax_levels):
        branch = level(kernel_attention(features, value_weights, smax))
        out = branch if out is None else nc.add(out, branch)
    return out


@dataclass
class EncoderParams:
    """All learned pieces of the graph encoder."""

    standard: list[AttentionParams]  # stacked plain-attention blocks
    kernel_values: Tensor  # (r, r) value projection shared by every kernel level
    levels: list[Affine]  # re-embed each kernel level's attention
    comb: Affine  # re-embeds the standard branch before the sum

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, blk in enumerate(self.standard):
            out += blk.named_parameters(f"std{i}")
        out.append(("kernel.wv", self.kernel_values))
        for j, level in enumerate(self.levels):
            out += level.named_parameters(f"level{j}")
        return out + self.comb.named_parameters("comb")


def encoder_init(
    r: int, n_levels: int, rng: np.random.Generator, n_standard_layers: int = 1
) -> EncoderParams:
    bound = 1.0 / math.sqrt(r)
    return EncoderParams(
        standard=[attention_init(r, rng) for _ in range(n_standard_layers)],
        kernel_values=Tensor(rng.uniform(-bound, bound, size=(r, r)), requires_grad=True),
        levels=[nc.affine_init(r, r, rng) for _ in range(n_levels)],
        comb=nc.affine_init(r, r, rng),
    )


def combined_encoding(
    features: Tensor,
    heads: int,
    params: EncoderParams,
    smax_levels: list[Tensor],
) -> Tensor:
    """Hierarchical kernel encoding plus the re-embedded standard branch."""
    hier = hierarchical_attention(features, params.levels, params.kernel_values, smax_levels)
    std = features
    for blk in params.standard:
        std = multihead_attention(std, std, blk, heads)
    return nc.add(hier, params.comb(std))
