import math
from types import SimpleNamespace

import numpy as np
import pytest

from prism25d import numcore as nc
from prism25d.attention import (
    DEFAULT_BANDWIDTHS,
    attention_init,
    build_bundles,
    combined_encoding,
    encoder_init,
    hierarchical_attention,
    kernel_attention,
    kernel_distances,
    kernel_matrix,
    kernel_softmax_levels,
    multihead_attention,
    project_nodes,
)
from prism25d.errors import ValidationError
from prism25d.graph import graphs_from_records
from prism25d.numcore import Tensor

from helpers import (
    affine_identity, detection, fd_gradients, kernel, max_relative_error, min_time_gap, node, table,
)


def _nodes(rng, n=5, r=8):
    """Random (r, n) node features, with each node's position and observation times."""
    positions = rng.uniform(-2, 2, size=(n, 3))
    times = [np.array([t]) for t in rng.uniform(0, 1, size=n)]
    return Tensor(rng.normal(size=(r, n))), positions, times


def _level(positions, times, sigma_s, sigma_t):
    """The row-softmaxed kernel matrix of one (sigma_s, sigma_t) level."""
    return kernel_softmax_levels(positions, times, ((sigma_s, sigma_t),))[0]


def _node_like(pos, frames):
    return SimpleNamespace(centroid3d=np.asarray(pos, dtype=float), source_frames=list(frames))


# -- kernel ----------------------------------------------------------------------


def test_kernel_self_similarity_is_one():
    v = _node_like((0.3, -1.0, 2.0), [25])
    assert kernel(v, v, 1.0, 1.0, 100) == 1.0


def test_kernel_one_sigma_spatial():
    v = _node_like((0.0, 0.0, 0.0), [50])
    w = _node_like((0.7, 0.0, 0.0), [50])
    assert kernel(v, w, 0.7, 1.0, 100) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_one_sigma_temporal():
    v = _node_like((1.0, 1.0, 1.0), [20])
    w = _node_like((1.0, 1.0, 1.0), [50])
    assert kernel(v, w, 1.0, 0.3, 100) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kernel_merged_nodes_use_min_time_gap():
    v = _node_like((0.0, 0.0, 0.0), [10, 50, 90])
    w = _node_like((0.0, 0.0, 0.0), [45])
    gap = min_time_gap(np.array(v.source_frames) / 100, np.array(w.source_frames) / 100)
    assert gap == pytest.approx(0.05)
    assert kernel(v, w, 1.0, 1.0, 100) == pytest.approx(math.exp(-0.05), rel=1e-12)


def test_kernel_symmetry_and_monotonicity():
    rng = np.random.default_rng(0)
    base = _node_like((0.0, 0.0, 0.0), [50])
    for _ in range(50):
        a = _node_like(rng.uniform(-3, 3, 3), [rng.integers(0, 100)])
        b = _node_like(rng.uniform(-3, 3, 3), [rng.integers(0, 100)])
        assert kernel(a, b, 0.8, 0.4, 100) == pytest.approx(kernel(b, a, 0.8, 0.4, 100), rel=1e-14)
    # strictly decreasing in spatial distance at fixed time
    dists = np.linspace(0.1, 3.0, 12)
    vals = [kernel(base, _node_like((d, 0, 0), [50]), 1.0, 1.0, 100) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # strictly decreasing in temporal gap at fixed position
    gaps = np.arange(1, 50, 5)
    vals_t = [kernel(base, _node_like((0, 0, 0), [50 + g]), 1.0, 0.7, 100) for g in gaps]
    assert all(a > b for a, b in zip(vals_t, vals_t[1:]))


def test_kernel_matrix_matches_pairwise_kernel():
    rng = np.random.default_rng(1)
    grid = np.arange(24)
    node_frames = [
        [np.sort(rng.choice(1000, size=rng.integers(1, 4), replace=False)) for _ in range(6)],  # mixed
        [np.array([f]) for f in rng.integers(0, 1000, size=6)],  # all singletons
        [grid, grid[:1], np.sort(rng.choice(grid, 24 - 7, replace=False)), grid[5:6], grid],
        [grid[3:9]] * 5 + [grid[::4]],  # one shared frame grid
    ]
    for frames, max_frames in zip(node_frames, (1000, 1000, 24, 24)):
        n = len(frames)
        positions = rng.uniform(-2, 2, size=(n, 3))
        mat = kernel_matrix(*kernel_distances(positions, [f / max_frames for f in frames]), 0.9, 0.4)
        assert mat.shape == (n, n)
        for i in range(n):
            for j in range(n):
                vi = _node_like(positions[i], frames[i])
                vj = _node_like(positions[j], frames[j])
                assert mat[i, j] == pytest.approx(kernel(vi, vj, 0.9, 0.4, max_frames), rel=1e-12)
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
    g = graphs_from_records(recs, registry)[0]
    rng = np.random.default_rng(0)
    mlp_s = nc.affine_init(2, 4, rng)
    mlp_d = nc.affine_init(4, 4, rng)
    bundle = build_bundles({"v": g}, ((0.9, 0.4),))["v"]
    features = project_nodes(bundle, mlp_s, mlp_d)
    assert features.data.shape == (4, 5)
    assert g.nodes.tolist() == [0, 1, 2, 3, 4]
    # each column equals a straight per-node evaluation
    for col, nid in enumerate(g.nodes.tolist()):
        v = node(g, nid)
        params = mlp_s if v.motion_feature is None else mlp_d
        combined = v.feature if v.motion_feature is None else np.concatenate([v.feature, v.motion_feature])
        want = params.w.data @ combined + params.b.data[:, 0]
        assert np.allclose(features.data[:, col], want, atol=1e-12)
    # the kernel rows and columns follow the same node order
    positions = np.stack([node(g, nid).centroid3d for nid in g.nodes.tolist()])
    times = [np.array(node(g, nid).source_frames) / g.max_frames for nid in g.nodes.tolist()]
    assert np.allclose(bundle.smax[0].data, _level(positions, times, 0.9, 0.4).data, atol=1e-12)


@pytest.mark.parametrize("max_frames, frames", [
    (3 * 2**60 + 1, [2**60, 2**60 + 33]),
    (10**20 + 1, [91596660008221686412, 91596660008221695546]),
], ids=["int64-beyond-2**53", "object-column"])
def test_bundle_times_divide_frames_as_python_does(registry, max_frames, frames):
    # float(f) / float(max_frames) rounds twice here and puts both nodes at one time; Python's
    # f / max_frames rounds once and sets them one ulp apart, which sigma_t = 1e-16 makes visible
    g = graphs_from_records([detection(frame=f) for f in frames], registry, max_frames=max_frames)[0]
    assert (g.obs_frames.dtype == object) == (max_frames > 2**63)
    levels = ((1.0, 1e-16),)
    got = build_bundles({"v": g}, levels)["v"].smax[0].data
    times = [np.array([f / max_frames]) for f in frames]
    assert np.array_equal(got, kernel_softmax_levels(g.centroids, times, levels)[0].data)
    rounded_twice = [np.array([float(f) / float(max_frames)]) for f in frames]
    assert not np.array_equal(got, kernel_softmax_levels(g.centroids, rounded_twice, levels)[0].data)


def test_project_identity_mlp_passthrough(registry):
    recs = [detection(frame=0, class_id=1), detection(frame=1, class_id=2, bbox=(60, 60, 90, 90))]
    g = graphs_from_records(recs, registry)[0]
    features = project_nodes(build_bundles({"v": g}, ((1.0, 1.0),))["v"], affine_identity(2), affine_identity(2))
    for col, nid in enumerate(g.nodes.tolist()):
        assert np.allclose(features.data[:, col], node(g, nid).feature)


def test_build_bundles_rejects_motionless_dynamic(registry):
    g = graphs_from_records([detection(class_id=101, motion=(0.5, 0.5))], registry)[0]
    g.motions = g.motions[:0]  # node 0 is dynamic
    with pytest.raises(ValidationError, match="lacks a motion feature"):
        build_bundles({"v": g}, ((1.0, 1.0),))


def test_build_bundles_rejects_a_graph_without_nodes():
    with pytest.raises(ValidationError, match="^video 'e': graph has no nodes$"):
        build_bundles({"e": table([], video_id="e")}, ((1.0, 1.0),))


def test_project_dim_mismatch(registry):
    recs = [detection(frame=0, class_id=1)]
    g = graphs_from_records(recs, registry)[0]
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        project_nodes(build_bundles({"v": g}, ((1.0, 1.0),))["v"], nc.affine_init(7, 4, rng),
                      nc.affine_init(4, 4, rng))


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


def _brute_kernel_attention(features, positions, times, sigma_s, sigma_t, wv, heads):
    f = features.data
    r, n = f.shape
    rk = r // heads
    kmat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d2 = np.sum((positions[i] - positions[j]) ** 2)
            dt = np.abs(times[i][:, None] - times[j][None, :]).min()
            kmat[i, j] = math.exp(-d2 / sigma_s**2 - dt / sigma_t)
    e = np.exp(kmat - kmat.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    v = wv.data @ f
    return np.concatenate([v[i * rk:(i + 1) * rk] @ s.T for i in range(heads)], axis=0)


def test_kernel_attention_single_node():
    rng = np.random.default_rng(5)
    f, pos, times = _nodes(rng, n=1)
    wv = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    out = kernel_attention(f, wv, _level(pos, times, 1.0, 1.0))
    assert np.allclose(out.data, wv.data @ f.data, atol=1e-12)


def test_kernel_attention_large_bandwidth_limit():
    rng = np.random.default_rng(6)
    f, pos, times = _nodes(rng, n=6)
    wv = Tensor(rng.normal(size=(8, 8)))
    out = kernel_attention(f, wv, _level(pos, times, 1e9, 1e9))
    mean_col = (wv.data @ f.data).mean(axis=1)
    for col in range(6):
        assert np.allclose(out.data[:, col], mean_col, atol=1e-9)


def test_kernel_attention_matches_brute_force():
    rng = np.random.default_rng(7)
    f, pos, times = _nodes(rng, n=5)
    wv = Tensor(rng.normal(size=(8, 8)))
    out = kernel_attention(f, wv, _level(pos, times, 0.8, 0.5))
    assert np.allclose(out.data, _brute_kernel_attention(f, pos, times, 0.8, 0.5, wv, 2), atol=1e-12)


# -- hierarchical -------------------------------------------------------------------


def test_hierarchical_single_level_identity_mlp_reduces_to_kernel_attention():
    rng = np.random.default_rng(8)
    f, pos, times = _nodes(rng)
    wv = Tensor(rng.normal(size=(8, 8)))
    hier = hierarchical_attention(f, [affine_identity(8)], wv, [_level(pos, times, 0.7, 0.7)])
    ka = kernel_attention(f, wv, _level(pos, times, 0.7, 0.7))
    assert np.allclose(hier.data, ka.data, atol=1e-12)


def test_hierarchical_zero_second_branch():
    rng = np.random.default_rng(9)
    f, pos, times = _nodes(rng)
    levels = ((0.5, 0.5), (2.0, 2.0))
    wv = Tensor(rng.normal(size=(8, 8)))
    mlp1 = nc.affine_init(8, 8, rng)
    zero = nc.Affine(Tensor(np.zeros((8, 8)), requires_grad=True), Tensor(np.zeros((8, 1)), requires_grad=True))
    hier = hierarchical_attention(f, [mlp1, zero], wv, kernel_softmax_levels(pos, times, levels))
    branch1 = mlp1(kernel_attention(f, wv, _level(pos, times, 0.5, 0.5)))
    assert np.allclose(hier.data, branch1.data, atol=1e-12)


def test_hierarchical_default_bandwidths_match_brute_force_sum():
    rng = np.random.default_rng(10)
    f, pos, times = _nodes(rng, n=6)
    levels = tuple((s, s) for s in DEFAULT_BANDWIDTHS)
    wv = Tensor(rng.normal(size=(8, 8)))
    mlps = [nc.affine_init(8, 8, rng) for _ in range(4)]
    got = hierarchical_attention(f, mlps, wv, kernel_softmax_levels(pos, times, levels)).data
    want = np.zeros_like(got)
    for (s, t), mlp in zip(levels, mlps):
        branch = _brute_kernel_attention(f, pos, times, s, t, wv, 2)
        want += mlp.w.data @ branch + mlp.b.data
    assert np.allclose(got, want, atol=1e-10)


def test_hierarchical_level_count_mismatch():
    rng = np.random.default_rng(11)
    f, pos, times = _nodes(rng)
    smax = kernel_softmax_levels(pos, times, ((0.5, 0.5), (2.0, 2.0)))
    with pytest.raises(ValidationError):
        hierarchical_attention(f, [affine_identity(8)], Tensor(np.eye(8)), smax)


# -- combined -----------------------------------------------------------------------


def test_combined_zero_comb_mlp_equals_hierarchical():
    rng = np.random.default_rng(12)
    f, pos, times = _nodes(rng)
    enc = encoder_init(8, 1, rng)
    enc.comb.w.data[:] = 0.0
    enc.comb.b.data[:] = 0.0
    smax = [_level(pos, times, 0.5, 0.5)]
    out = combined_encoding(f, 2, enc, smax)
    hier = hierarchical_attention(f, enc.levels, enc.kernel_values, smax)
    assert np.allclose(out.data, hier.data, atol=1e-12)


def test_combined_matches_independent_evaluation():
    rng = np.random.default_rng(13)
    f, pos, times = _nodes(rng, n=5)
    levels = ((0.3, 0.3), (3.0, 3.0))
    enc = encoder_init(8, len(levels), rng)
    got = combined_encoding(f, 2, enc, kernel_softmax_levels(pos, times, levels)).data
    want = np.zeros_like(got)
    for (s, t), mlp in zip(levels, enc.levels):
        branch = _brute_kernel_attention(f, pos, times, s, t, enc.kernel_values, 2)
        want += mlp.w.data @ branch + mlp.b.data
    std = _brute_standard(f.data, enc.standard[0], 2)
    want += enc.comb.w.data @ std + enc.comb.b.data
    assert np.allclose(got, want, atol=1e-10)


# -- shared properties ---------------------------------------------------------------


def test_permutation_equivariance_all_encoders():
    rng = np.random.default_rng(14)
    levels = ((0.5, 0.5), (2.0, 2.0))
    for _ in range(10):
        f, pos, times = _nodes(rng, n=6)
        enc = encoder_init(8, len(levels), rng)
        perm = rng.permutation(6)
        f_p = Tensor(f.data[:, perm].copy())
        smax = kernel_softmax_levels(pos, times, levels)
        smax_p = kernel_softmax_levels(pos[perm].copy(), [times[i] for i in perm], levels)
        pairs = [
            (multihead_attention(f, f, enc.standard[0], 2),
             multihead_attention(f_p, f_p, enc.standard[0], 2)),
            (kernel_attention(f, enc.kernel_values, smax[0]),
             kernel_attention(f_p, enc.kernel_values, smax_p[0])),
            (hierarchical_attention(f, enc.levels, enc.kernel_values, smax),
             hierarchical_attention(f_p, enc.levels, enc.kernel_values, smax_p)),
            (combined_encoding(f, 2, enc, smax), combined_encoding(f_p, 2, enc, smax_p)),
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
    enc = encoder_init(8, 2, rng)
    f, pos, times = _nodes(rng, n=4)
    params = [t for _, t in enc.named_parameters()]
    weights = np.random.default_rng(18).normal(size=(8, 4))
    smax = kernel_softmax_levels(pos, times, ((0.5, 0.5), (2.0, 2.0)))

    def build():
        out = combined_encoding(f, 2, enc, smax)
        return nc.tsum(nc.mul(out, Tensor(weights)))

    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    fd = fd_gradients(build, params, h=1e-5)
    for p, f in zip(params, fd):
        assert max_relative_error(p.grad, f) < 1e-4
