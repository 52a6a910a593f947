import math

import numpy as np
import pytest

from prism25d import numcore as nc
from prism25d.attention import (
    KernelConfig,
    NodeFeatureMatrix,
    DEFAULT_BANDWIDTHS,
    attention_init,
    combined_encoding,
    encoder_init,
    hierarchical_attention,
    kernel,
    kernel_attention,
    kernel_distances,
    kernel_matrix,
    kernel_softmax_levels,
    min_time_gap,
    multihead_attention,
    node_inputs,
    project_inputs,
)
from prism25d.errors import ValidationError
from prism25d.graph import graph_from_records
from prism25d.numcore import Tensor
from prism25d.qa import build_bundles

from helpers import detection, fd_gradients, max_relative_error, mlp_identity


def _nfm(rng, n=5, r=8, times=None, positions=None):
    positions = rng.uniform(-2, 2, size=(n, 3)) if positions is None else positions
    if times is None:
        times = [np.array([t]) for t in rng.uniform(0, 1, size=n)]
    return NodeFeatureMatrix(
        features=Tensor(rng.normal(size=(r, n))),
        positions=positions,
        time_obs=times,
        node_ids=list(range(n)),
    )


def _levels(nfm, cfg):
    return kernel_softmax_levels(nfm.positions, nfm.time_obs, cfg)


def _level(nfm, sigma_s, sigma_t):
    """The row-softmaxed kernel matrix of one (sigma_s, sigma_t) level."""
    return _levels(nfm, KernelConfig(levels=((sigma_s, sigma_t),)))[0]


def _node_like(pos, times):
    from prism25d.graph import SceneNode

    return SceneNode(
        node_id=0, class_id=1, feature=np.zeros(2), bbox=(0, 0, 1, 1),
        centroid3d=np.asarray(pos, dtype=float), timestamps=list(times),
        source_frames=list(range(len(times))),
    )


# -- kernel ----------------------------------------------------------------------


def test_kernel_self_similarity_is_one():
    v = _node_like((0.3, -1.0, 2.0), [0.25])
    assert kernel(v, v, 1.0, 1.0) == 1.0


def test_kernel_one_sigma_spatial():
    v = _node_like((0.0, 0.0, 0.0), [0.5])
    w = _node_like((0.7, 0.0, 0.0), [0.5])
    assert kernel(v, w, 0.7, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_one_sigma_temporal():
    v = _node_like((1.0, 1.0, 1.0), [0.2])
    w = _node_like((1.0, 1.0, 1.0), [0.5])
    assert kernel(v, w, 1.0, 0.3) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_merged_nodes_use_min_time_gap():
    v = _node_like((0.0, 0.0, 0.0), [0.1, 0.5, 0.9])
    w = _node_like((0.0, 0.0, 0.0), [0.45])
    assert min_time_gap(np.array(v.timestamps), np.array(w.timestamps)) == pytest.approx(0.05)
    assert kernel(v, w, 1.0, 1.0) == pytest.approx(math.exp(-0.05), rel=1e-12)


def test_kernel_symmetry_and_monotonicity():
    rng = np.random.default_rng(0)
    base = _node_like((0.0, 0.0, 0.0), [0.5])
    for _ in range(50):
        a = _node_like(rng.uniform(-3, 3, 3), [rng.uniform(0, 1)])
        b = _node_like(rng.uniform(-3, 3, 3), [rng.uniform(0, 1)])
        assert kernel(a, b, 0.8, 0.4) == pytest.approx(kernel(b, a, 0.8, 0.4), rel=1e-14)
    # strictly decreasing in spatial distance at fixed time
    dists = np.linspace(0.1, 3.0, 12)
    vals = [kernel(base, _node_like((d, 0, 0), [0.5]), 1.0, 1.0) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # strictly decreasing in temporal gap at fixed position
    gaps = np.linspace(0.05, 0.9, 10)
    vals_t = [kernel(base, _node_like((0, 0, 0), [0.5 + g / 2]), 1.0, 0.7) for g in gaps]
    assert all(a > b for a, b in zip(vals_t, vals_t[1:]))


def test_kernel_matrix_matches_pairwise_kernel():
    rng = np.random.default_rng(1)
    grid = np.arange(24) / 24
    node_times = [
        [np.sort(rng.uniform(0, 1, size=rng.integers(1, 4))) for _ in range(6)],  # mixed
        [np.array([t]) for t in rng.uniform(0, 1, size=6)],  # all singletons
        [grid, grid[:1], np.sort(rng.choice(grid, 24 - 7, replace=False)), grid[5:6], grid],
    ]
    for times in node_times:
        n = len(times)
        positions = rng.uniform(-2, 2, size=(n, 3))
        mat = kernel_matrix(*kernel_distances(positions, times), 0.9, 0.4)
        assert mat.shape == (n, n)
        for i in range(n):
            for j in range(n):
                vi = _node_like(positions[i], times[i])
                vj = _node_like(positions[j], times[j])
                assert mat[i, j] == pytest.approx(kernel(vi, vj, 0.9, 0.4), rel=1e-12)
    assert kernel_matrix(*kernel_distances(np.zeros((0, 3)), []), 0.9, 0.4).shape == (0, 0)


# -- projection ---------------------------------------------------------------


def test_project_node_counts_and_order(registry):
    recs = [
        detection(frame=0, class_id=1, bbox=(10, 10, 40, 40)),
        detection(frame=0, class_id=101, bbox=(60, 10, 90, 40), motion=(0.5, 1.5)),
        detection(frame=1, class_id=2, bbox=(10, 60, 40, 90)),
        detection(frame=1, class_id=102, bbox=(60, 60, 90, 90), motion=(1.0, 0.0)),
        detection(frame=1, class_id=101, bbox=(110, 60, 140, 90), motion=(0.0, 0.5)),
    ]
    g = graph_from_records(recs, registry)
    rng = np.random.default_rng(0)
    mlp_s = nc.mlp_init([2, 4], rng)
    mlp_d = nc.mlp_init([4, 4], rng)
    nfm = project_inputs(node_inputs(g), mlp_s, mlp_d)
    assert nfm.features.data.shape == (4, 5)
    assert nfm.node_ids == [0, 1, 2, 3, 4]
    # each column equals a straight per-node evaluation
    for col, nid in enumerate(nfm.node_ids):
        node = g.nodes[nid]
        params = mlp_s if nid in g.static_nodes else mlp_d
        want = params.weights[0].data @ node.combined_feature + params.biases[0].data[:, 0]
        assert np.allclose(nfm.features.data[:, col], want, atol=1e-12)
        assert np.allclose(nfm.positions[col], node.centroid3d)


def test_project_identity_mlp_passthrough(registry):
    recs = [detection(frame=0, class_id=1), detection(frame=1, class_id=2, bbox=(60, 60, 90, 90))]
    g = graph_from_records(recs, registry)
    nfm = project_inputs(node_inputs(g), mlp_identity(2), mlp_identity(2))
    for col, nid in enumerate(nfm.node_ids):
        assert np.allclose(nfm.features.data[:, col], g.nodes[nid].feature)


def test_node_inputs_rejects_motionless_dynamic(registry):
    g = graph_from_records([detection(class_id=101, motion=(0.5, 0.5))], registry)
    g.nodes[0].motion_feature = None
    with pytest.raises(ValidationError, match="lacks a motion feature"):
        node_inputs(g)
    with pytest.raises(ValidationError, match="lacks a motion feature"):
        build_bundles({"v": g}, KernelConfig(levels=((1.0, 1.0),)))


def test_project_dim_mismatch(registry):
    recs = [detection(frame=0, class_id=1)]
    g = graph_from_records(recs, registry)
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        project_inputs(node_inputs(g), nc.mlp_init([7, 4], rng), nc.mlp_init([4, 4], rng))


# -- standard attention ------------------------------------------------------------


def _brute_standard(f, params, heads):
    """Straight-line multi-head attention, written from the equation."""
    r, n = f.shape
    rk = r // heads
    out = np.zeros((r, n))
    q, k, v = params.wq.data @ f, params.wk.data @ f, params.wv.data @ f
    for i in range(heads):
        qi, ki, vi = (m[i * rk:(i + 1) * rk] for m in (q, k, v))
        scores = qi.T @ ki / math.sqrt(rk)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        out[i * rk:(i + 1) * rk] = vi @ a.T
    return out


def test_standard_attention_single_node_is_value_projection():
    rng = np.random.default_rng(2)
    params = attention_init(8, rng)
    f = Tensor(rng.normal(size=(8, 1)))
    out = multihead_attention(f, f, params, heads=2)
    assert np.allclose(out.data, params.wv.data @ f.data, atol=1e-12)


def test_standard_attention_identical_columns():
    rng = np.random.default_rng(3)
    params = attention_init(8, rng)
    col = rng.normal(size=(8, 1))
    f = Tensor(np.tile(col, (1, 2)))
    out = multihead_attention(f, f, params, heads=4)
    assert np.allclose(out.data[:, 0], out.data[:, 1], atol=1e-12)


def test_standard_attention_matches_brute_force():
    rng = np.random.default_rng(4)
    params = attention_init(8, rng)
    f = rng.normal(size=(8, 4))
    out = multihead_attention(Tensor(f), Tensor(f), params, heads=2)
    assert np.allclose(out.data, _brute_standard(f, params, heads=2), atol=1e-12)


# -- kernel attention ---------------------------------------------------------------


def _brute_kernel_attention(nfm, sigma_s, sigma_t, wv, heads):
    f = nfm.features.data
    r, n = f.shape
    rk = r // heads
    kmat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2 = np.sum((nfm.positions[i] - nfm.positions[j]) ** 2)
            dt = np.abs(nfm.time_obs[i][:, None] - nfm.time_obs[j][None, :]).min()
            kmat[i, j] = math.exp(-d2 / sigma_s**2 - dt / sigma_t)
    e = np.exp(kmat - kmat.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    v = wv.data @ f
    return np.concatenate([v[i * rk:(i + 1) * rk] @ s.T for i in range(heads)], axis=0)


def test_kernel_attention_single_node():
    rng = np.random.default_rng(5)
    nfm = _nfm(rng, n=1)
    wv = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    out = kernel_attention(nfm, wv, _level(nfm, 1.0, 1.0))
    assert np.allclose(out.data, wv.data @ nfm.features.data, atol=1e-12)


def test_kernel_attention_large_bandwidth_limit():
    rng = np.random.default_rng(6)
    nfm = _nfm(rng, n=6)
    wv = Tensor(rng.normal(size=(8, 8)))
    out = kernel_attention(nfm, wv, _level(nfm, 1e9, 1e9))
    mean_col = (wv.data @ nfm.features.data).mean(axis=1)
    for col in range(6):
        assert np.allclose(out.data[:, col], mean_col, atol=1e-9)


def test_kernel_attention_matches_brute_force():
    rng = np.random.default_rng(7)
    nfm = _nfm(rng, n=5)
    wv = Tensor(rng.normal(size=(8, 8)))
    out = kernel_attention(nfm, wv, _level(nfm, 0.8, 0.5))
    assert np.allclose(out.data, _brute_kernel_attention(nfm, 0.8, 0.5, wv, 2), atol=1e-12)


# -- hierarchical -------------------------------------------------------------------


def test_hierarchical_single_level_identity_mlp_reduces_to_kernel_attention():
    rng = np.random.default_rng(8)
    nfm = _nfm(rng)
    cfg = KernelConfig(levels=((0.7, 0.7),), heads=2, latent_dim=8)
    wv = Tensor(rng.normal(size=(8, 8)))
    hier = hierarchical_attention(nfm, cfg, [mlp_identity(8)], wv, _levels(nfm, cfg))
    ka = kernel_attention(nfm, wv, _level(nfm, 0.7, 0.7))
    assert np.allclose(hier.data, ka.data, atol=1e-12)


def test_hierarchical_zero_second_branch():
    rng = np.random.default_rng(9)
    nfm = _nfm(rng)
    cfg = KernelConfig(levels=((0.5, 0.5), (2.0, 2.0)), heads=2, latent_dim=8)
    wv = Tensor(rng.normal(size=(8, 8)))
    mlp1 = nc.mlp_init([8, 8], rng)
    zero = nc.MlpParams(
        [Tensor(np.zeros((8, 8)), requires_grad=True)],
        [Tensor(np.zeros((8, 1)), requires_grad=True)],
        ["identity"],
    )
    hier = hierarchical_attention(nfm, cfg, [mlp1, zero], wv, _levels(nfm, cfg))
    branch1 = nc.mlp_forward(mlp1, kernel_attention(nfm, wv, _level(nfm, 0.5, 0.5)))
    assert np.allclose(hier.data, branch1.data, atol=1e-12)


def test_hierarchical_default_bandwidths_match_brute_force_sum():
    rng = np.random.default_rng(10)
    nfm = _nfm(rng, n=6)
    cfg = KernelConfig(levels=tuple((s, s) for s in DEFAULT_BANDWIDTHS), heads=2, latent_dim=8)
    wv = Tensor(rng.normal(size=(8, 8)))
    mlps = [nc.mlp_init([8, 8], rng) for _ in range(4)]
    got = hierarchical_attention(nfm, cfg, mlps, wv, _levels(nfm, cfg)).data
    want = np.zeros_like(got)
    for (s, t), mlp in zip(cfg.levels, mlps):
        branch = _brute_kernel_attention(nfm, s, t, wv, 2)
        want += mlp.weights[0].data @ branch + mlp.biases[0].data
    assert np.allclose(got, want, atol=1e-10)


def test_hierarchical_level_count_mismatch():
    rng = np.random.default_rng(11)
    nfm = _nfm(rng)
    cfg = KernelConfig(levels=((0.5, 0.5), (2.0, 2.0)), heads=2, latent_dim=8)
    with pytest.raises(ValidationError):
        hierarchical_attention(nfm, cfg, [mlp_identity(8)], Tensor(np.eye(8)), _levels(nfm, cfg))


# -- combined -----------------------------------------------------------------------


def test_combined_zero_comb_mlp_equals_hierarchical():
    rng = np.random.default_rng(12)
    nfm = _nfm(rng)
    cfg = KernelConfig(levels=((0.5, 0.5),), heads=2, latent_dim=8)
    enc = encoder_init(cfg, rng)
    enc.comb_mlp.weights[0].data[:] = 0.0
    enc.comb_mlp.biases[0].data[:] = 0.0
    out = combined_encoding(nfm, cfg, enc, _levels(nfm, cfg))
    hier = hierarchical_attention(nfm, cfg, enc.level_mlps, enc.kernel_values, _levels(nfm, cfg))
    assert np.allclose(out.data, hier.data, atol=1e-12)


def test_combined_matches_independent_evaluation():
    rng = np.random.default_rng(13)
    nfm = _nfm(rng, n=5)
    cfg = KernelConfig(levels=((0.3, 0.3), (3.0, 3.0)), heads=2, latent_dim=8)
    enc = encoder_init(cfg, rng)
    got = combined_encoding(nfm, cfg, enc, _levels(nfm, cfg)).data
    want = np.zeros_like(got)
    for (s, t), mlp in zip(cfg.levels, enc.level_mlps):
        branch = _brute_kernel_attention(nfm, s, t, enc.kernel_values, 2)
        want += mlp.weights[0].data @ branch + mlp.biases[0].data
    std = _brute_standard(nfm.features.data, enc.standard[0], 2)
    want += enc.comb_mlp.weights[0].data @ std + enc.comb_mlp.biases[0].data
    assert np.allclose(got, want, atol=1e-10)


# -- shared properties ---------------------------------------------------------------


def _permute(nfm, perm):
    return NodeFeatureMatrix(
        features=Tensor(nfm.features.data[:, perm].copy()),
        positions=nfm.positions[perm].copy(),
        time_obs=[nfm.time_obs[i] for i in perm],
        node_ids=list(range(len(perm))),
    )


def test_permutation_equivariance_all_encoders():
    rng = np.random.default_rng(14)
    cfg = KernelConfig(levels=((0.5, 0.5), (2.0, 2.0)), heads=2, latent_dim=8)
    for _ in range(10):
        nfm = _nfm(rng, n=6)
        enc = encoder_init(cfg, rng)
        perm = rng.permutation(6)
        permuted = _permute(nfm, perm)
        smax, smax_p = _levels(nfm, cfg), _levels(permuted, cfg)
        pairs = [
            (multihead_attention(nfm.features, nfm.features, enc.standard[0], 2),
             multihead_attention(permuted.features, permuted.features, enc.standard[0], 2)),
            (kernel_attention(nfm, enc.kernel_values, smax[0]),
             kernel_attention(permuted, enc.kernel_values, smax_p[0])),
            (hierarchical_attention(nfm, cfg, enc.level_mlps, enc.kernel_values, smax),
             hierarchical_attention(permuted, cfg, enc.level_mlps, enc.kernel_values, smax_p)),
            (combined_encoding(nfm, cfg, enc, smax), combined_encoding(permuted, cfg, enc, smax_p)),
        ]
        for base, after in pairs:
            assert np.allclose(base.data[:, perm], after.data, atol=1e-9)


def test_attention_rows_stochastic():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        positions = rng.uniform(-2, 2, size=(n, 3))
        times = [np.array([t]) for t in rng.uniform(0, 1, n)]
        for sigma in (0.1, 1.0, 10.0):
            kmat = kernel_matrix(*kernel_distances(positions, times), sigma, sigma)
            s = nc.softmax_rows(Tensor(kmat)).data
            assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-9)


def test_smaller_bandwidth_concentrates_attention():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        positions = rng.uniform(-2, 2, size=(n, 3))
        times = [np.array([t]) for t in rng.uniform(0, 1, n)]
        entropies = []
        for sigma in (10.0, 1.0, 0.1, 0.01):
            kmat = kernel_matrix(*kernel_distances(positions, times), sigma, sigma)
            s = nc.softmax_rows(Tensor(kmat)).data
            entropies.append(float(-(s * np.log(s)).sum(axis=1).mean()))
        assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    cfg = KernelConfig(levels=((0.5, 0.5), (2.0, 2.0)), heads=2, latent_dim=8)
    enc = encoder_init(cfg, rng)
    nfm = _nfm(rng, n=4)
    params = [t for _, t in enc.named_parameters()]
    weights = np.random.default_rng(18).normal(size=(8, 4))
    smax = _levels(nfm, cfg)

    def build():
        out = combined_encoding(nfm, cfg, enc, smax)
        return nc.tsum(nc.mul(out, Tensor(weights)))

    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    fd = fd_gradients(build, params, h=1e-5)
    for p, f in zip(params, fd):
        assert max_relative_error(p.grad, f) < 1e-4
