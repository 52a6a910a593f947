import json
from types import SimpleNamespace

import numpy as np
import pytest

from prism25d.compact import (
    MatchParams,
    build_ancestors,
    compact,
    corpus_stats,
    merge_static,
    reduction_pct,
)
from prism25d.errors import ValidationError
from prism25d.graph import _graph_body, graphs_from_records
from prism25d import register
from prism25d.register import estimate_frame_transforms, register_frames
from prism25d import synthworld as sw

from helpers import (
    criterion, generate_world, iou, node, oracle_ancestors, oracle_correspondences, oracle_merge_static,
    oracle_static_by_frame, table,
)


def _node(nid, frame, class_id=1, bbox=(0, 0, 10, 10), centroid=(0, 0, 0), motion=None):
    return SimpleNamespace(
        node_id=nid,
        class_id=class_id,
        feature=np.array([float(nid), float(nid)]),
        bbox=tuple(float(v) for v in bbox),
        centroid3d=np.array(centroid, dtype=float),
        source_frames=[frame],
        motion_feature=None if motion is None else np.array(motion, dtype=float),
    )


def _graph(nodes, dynamic=()):
    return table(nodes, dynamic=set(dynamic))


# -- iou and criterion: the test oracles behind compact.nearest's box test -----


def test_iou_identical_boxes():
    assert iou((2, 3, 8, 9), (2, 3, 8, 9)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_iou_hand_computed_third():
    # intersection 1x2=2, union 4+4-2=6
    assert iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1 / 3, abs=1e-15)


def test_criterion_same_class_high_iou():
    v = _node(0, 0, class_id=1, bbox=(0, 0, 10, 10))
    w = _node(1, 1, class_id=1, bbox=(0, 0, 10, 9))  # IoU 0.9
    assert criterion(v, w, MatchParams(gamma=0.5, delta=3))


def test_criterion_different_class_fails_despite_full_overlap():
    v = _node(0, 0, class_id=1)
    w = _node(1, 1, class_id=2)
    assert not criterion(v, w, MatchParams(gamma=0.5, delta=3))


def test_criterion_strict_at_threshold():
    v = _node(0, 0, bbox=(0, 0, 2, 2))
    w = _node(1, 1, bbox=(1, 0, 3, 2))  # IoU exactly 1/3
    assert not criterion(v, w, MatchParams(gamma=1 / 3, delta=3))
    assert criterion(v, w, MatchParams(gamma=1 / 3 - 1e-12, delta=3))


def test_match_params_validation():
    with pytest.raises(ValidationError):
        MatchParams(gamma=0.0)
    with pytest.raises(ValidationError):
        MatchParams(gamma=1.0)
    with pytest.raises(ValidationError):
        MatchParams(delta=0)


# -- one node's match, seen through build_ancestors --------------------------


def test_match_prefers_nearest_centroid():
    # a and b each overlap v at IoU 0.6 but each other at 1/3, so they stay apart
    # and v's ancestor names the one it matched, older or not
    for near_a, want in ((True, 0), (False, 1)):
        a = _node(0, 0, bbox=(-2.5, 0, 7.5, 10), centroid=(0.1 if near_a else 0.5, 0, 0))
        b = _node(1, 1, bbox=(2.5, 0, 12.5, 10), centroid=(0.5 if near_a else 0.1, 0, 0))
        v = _node(2, 2, centroid=(0, 0, 0))
        g = _graph([a, b, v])
        assert build_ancestors(g, MatchParams(gamma=0.5, delta=3)) == {0: 0, 1: 1, 2: want}


def test_match_none_without_candidates():
    a = _node(0, 0, class_id=2)
    v = _node(1, 1, class_id=1)
    g = _graph([a, v])
    assert build_ancestors(g, MatchParams(gamma=0.5, delta=3)) == {0: 0, 1: 1}


def test_match_window_excludes_older_frames():
    a = _node(0, 0)
    v = _node(1, 3, centroid=(0, 0, 0))
    g = _graph([a, v])
    assert build_ancestors(g, MatchParams(gamma=0.5, delta=3))[1] == 0
    assert build_ancestors(g, MatchParams(gamma=0.5, delta=2))[1] == 1  # frame t-delta-1


def test_match_tie_breaks_to_lower_node_id():
    a = _node(0, 0, centroid=(1, 0, 0))
    b = _node(1, 0, centroid=(-1, 0, 0))
    v = _node(2, 1, centroid=(0, 0, 0))
    g = _graph([b, a, v])  # frame 0 lists b first
    assert build_ancestors(g, MatchParams(gamma=0.5, delta=3)) == {0: 0, 1: 1, 2: 0}


# -- build_ancestors ---------------------------------------------------------


def test_ancestor_chain():
    v1, v2, v3 = _node(0, 0), _node(1, 1), _node(2, 2)
    g = _graph([v1, v2, v3])
    anc = build_ancestors(g, MatchParams(gamma=0.5, delta=1))
    assert anc == {0: 0, 1: 0, 2: 0}


def test_ancestors_without_matches():
    nodes = [_node(i, i, bbox=(i * 20, 0, i * 20 + 10, 10)) for i in range(3)]
    g = _graph(nodes)
    anc = build_ancestors(g, MatchParams(gamma=0.5, delta=3))
    assert anc == {0: 0, 1: 1, 2: 2}


def test_ancestor_skips_gap_frame():
    v1 = _node(0, 0)
    v2 = _node(1, 1, class_id=2, bbox=(50, 50, 60, 60))  # blocks nothing, wrong class
    v3 = _node(2, 2)
    g = _graph([v1, v2, v3])
    anc = build_ancestors(g, MatchParams(gamma=0.5, delta=2))
    assert anc[2] == 0


# -- merge_static -------------------------------------------------------------


def test_merge_averages_features():
    nodes = [_node(i, i) for i in range(3)]
    nodes[0].feature = np.array([1.0, 1.0])
    nodes[1].feature = np.array([2.0, 2.0])
    nodes[2].feature = np.array([3.0, 3.0])
    g = _graph(nodes)
    merged = compact(g, MatchParams(gamma=0.5, delta=3))
    assert len(merged.nodes) == 1
    assert np.allclose(node(merged, 0).feature, [2.0, 2.0], atol=1e-12)
    assert node(merged, 0).source_frames == [0, 1, 2]


def test_merge_keeps_root_centroid_exactly():
    nodes = [_node(i, i, centroid=(0.01 * i, 0, 0)) for i in range(4)]
    g = _graph(nodes)
    merged = compact(g, MatchParams(gamma=0.5, delta=3))
    assert np.array_equal(node(merged, 0).centroid3d, nodes[0].centroid3d)


def test_merge_singletons_is_identity():
    nodes = [_node(i, i, bbox=(i * 30, 0, i * 30 + 10, 10)) for i in range(3)]
    g = _graph(nodes)
    merged = compact(g, MatchParams(gamma=0.5, delta=3))
    assert len(merged.nodes) == 3
    assert merged == g


def test_merge_mixed_class_equivalence_is_internal_error():
    anc = {0: 0, 1: 0}
    v1 = _node(0, 0, class_id=1)
    v2 = _node(1, 1, class_id=2)
    g = _graph([v1, v2])
    with pytest.raises(AssertionError):
        merge_static(g, anc)


def test_merge_on_synthetic_corpus_reaches_object_count():
    reg = sw.default_registry()
    for seed in range(4):
        spec = sw.WorldSpec(seed=seed + 50, video_id=f"m{seed}", n_frames=8,
                            n_static=5, n_dynamic=2)
        records, truth = generate_world(spec)
        g = register_frames(graphs_from_records(records, reg)[0])
        merged = compact(g, MatchParams())
        assert np.count_nonzero(merged.static) == spec.n_static
        assert np.count_nonzero(~merged.static) == spec.n_dynamic * spec.n_frames


# -- oracle equivalence, idempotence, determinism ------------------------------


def _random_abstract_graph(rng, n_frames=6, per_frame=4):
    # clusters of same-class boxes that drift; a stress mix of merges and misses
    nodes = []
    nid = 0
    anchors = [(rng.uniform(0, 200), rng.uniform(0, 200), int(rng.integers(1, 3)))
               for _ in range(per_frame)]
    for f in range(n_frames):
        for ax, ay, cls in anchors:
            if rng.random() < 0.2:
                continue  # missed detection
            jx, jy = rng.normal(0, 3, size=2)
            w, h = rng.uniform(20, 40, size=2)
            nodes.append(
                _node(nid, f, class_id=cls,
                      bbox=(ax + jx, ay + jy, ax + jx + w, ay + jy + h),
                      centroid=(ax / 50 + rng.normal(0, 0.05), ay / 50, 2.0))
            )
            nid += 1
    return _graph(nodes)


def _brute_force_classes(g, params):
    """Independent oracle: exhaustive match search plus union-find closure."""
    static = g.nodes[g.static].tolist()
    parent = {nid: nid for nid in static}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vid in static:
        v = node(g, vid)
        best = None
        for wid in static:
            w = node(g, wid)
            gap = v.source_frames[0] - w.source_frames[0]
            if gap < 1 or gap > params.delta:
                continue
            if v.class_id != w.class_id or iou(v.bbox, w.bbox) <= params.gamma:
                continue
            d = float(np.linalg.norm(v.centroid3d - w.centroid3d))
            if best is None or (d, wid) < best:
                best = (d, wid)
        if best is not None:
            parent[find(best[1])] = find(vid)
    groups = {}
    for nid in static:
        groups.setdefault(find(nid), set()).add(nid)
    return sorted(map(frozenset, groups.values()), key=sorted)


def _ancestor_classes(g, params):
    anc = build_ancestors(g, params)
    groups = {}
    for nid, root in anc.items():
        groups.setdefault(root, set()).add(nid)
    return sorted(map(frozenset, groups.values()), key=sorted)


def test_equivalence_classes_match_brute_force_closure():
    rng = np.random.default_rng(3)
    params = MatchParams(gamma=0.5, delta=3)
    for _ in range(20):
        g = _random_abstract_graph(rng)
        assert _ancestor_classes(g, params) == _brute_force_classes(g, params)


def test_compaction_monotone_on_abstract_graphs():
    rng = np.random.default_rng(5)
    params = MatchParams(gamma=0.5, delta=3)
    for _ in range(10):
        g = _random_abstract_graph(rng)
        once = compact(g, params)
        assert len(once.nodes) <= len(g.nodes)
        assert np.count_nonzero(~once.static) == np.count_nonzero(~g.static)


def test_compaction_idempotent_on_synth_corpora():
    reg = sw.default_registry()
    params = MatchParams(gamma=0.5, delta=3)
    for seed, noise in ((70, sw.NoiseSpec()), (71, sw.NoiseSpec(bbox_px=2.0, depth=0.05))):
        spec = sw.WorldSpec(seed=seed, video_id=f"i{seed}", n_frames=8, n_static=5,
                            n_dynamic=2, extent_range=(1.4, 1.6), noise=noise)
        records, _ = generate_world(spec)
        g = register_frames(graphs_from_records(records, reg)[0])
        once = compact(g, params)
        twice = compact(once, params)
        assert twice == once


def test_compaction_deterministic():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    params = MatchParams()
    a = compact(_random_abstract_graph(rng1), params)
    b = compact(_random_abstract_graph(rng2), params)
    assert a == b


def test_merged_feature_fixed_summation_order():
    nodes = [_node(i, i) for i in range(5)]
    rng = np.random.default_rng(0)
    for n in nodes:
        n.feature = rng.normal(size=2)
    g = _graph(nodes)
    merged = compact(g, MatchParams())
    expect = np.mean([n.feature for n in nodes], axis=0)
    assert np.max(np.abs(node(merged, 0).feature - expect)) < 1e-12


def _big_graph():
    """Ids, class ids and frames beyond int64, with merges."""
    big = 2**70
    return _graph([_node(big + i, big + i // 2, class_id=big + i % 2,
                         bbox=(0, 0, 10, 10 + i // 2), centroid=(i % 3, 0, 0)) for i in range(8)])


def test_segment_merge_matches_per_class_loop():
    rng = np.random.default_rng(17)
    reg = sw.default_registry()
    cases = [(_big_graph(), MatchParams(gamma=0.5, delta=2))]
    for seed in (72, 73):
        spec = sw.WorldSpec(seed=seed, video_id=f"j{seed}", n_frames=8, n_static=5, n_dynamic=2,
                            noise=sw.NoiseSpec(bbox_px=1.0, depth=0.03))
        g = register_frames(graphs_from_records(generate_world(spec)[0], reg)[0])
        cases += [(g, MatchParams()), (compact(g, MatchParams(gamma=0.95)), MatchParams())]
    for graph, params in _grid_graphs(19, 30):
        graph.features = rng.normal(size=graph.features.shape)
        cases.append((graph, params))
    # compacted graphs, compacted again over a wider window: their nodes hold several observations
    cases += [(compact(g, p), MatchParams(gamma=p.gamma, delta=p.delta + 2)) for g, p in cases]
    remerged = 0
    for graph, params in cases:
        ancestors = build_ancestors(graph, params)
        got, want = compact(graph, params), oracle_merge_static(graph, ancestors)
        assert json.dumps(_graph_body(got)) == json.dumps(_graph_body(want))
        assert merge_static(graph, ancestors) == got
        remerged += any(a != nid and len(node(graph, nid).source_frames) > 1 for nid, a in ancestors.items())
    assert remerged >= 5


# -- stats ---------------------------------------------------------------------


def test_reduction_pct_reference_rows():
    assert round(reduction_pct(502.43, 233.36), 1) == 53.6
    assert round(reduction_pct(656.30, 499.51), 1) == 23.9


def test_compaction_stats_no_merges_and_empty():
    nodes = [_node(i, i, bbox=(i * 30, 0, i * 30 + 10, 10)) for i in range(3)]
    g = _graph(nodes)
    merged = compact(g, MatchParams())
    stats = corpus_stats([(g, merged)])
    assert stats == {"videos": 1, "full": 3.0, "static": 3.0, "dynamic": 0.0, "reduction_pct": 0.0}
    empty = _graph([])
    assert corpus_stats([(empty, empty)])["reduction_pct"] == 0.0
    assert corpus_stats([])["reduction_pct"] == 0.0


def test_compaction_stats_counts():
    nodes = [_node(i, i) for i in range(4)] + [_node(4, 0, class_id=3, motion=(1.0,))]
    g = _graph(nodes, dynamic=(4,))
    merged = compact(g, MatchParams())
    stats = corpus_stats([(g, merged)])
    assert stats["full"] == 5 and stats["static"] == 1 and stats["dynamic"] == 1
    assert stats["reduction_pct"] == pytest.approx(100 * (1 - 2 / 5))


# -- the windowed array search against the per-candidate loop -------------------


def _grid_graph(rng, n_frames=7, per_frame=6):
    """Static and dynamic nodes on small integer grids, so that IoU values meet gamma
    and distances tie exactly, with frame gaps, frames without static nodes and ids
    out of frame order."""
    frames = sorted(rng.choice(2 * n_frames, size=n_frames, replace=False).tolist())
    spec = []
    for f in frames:
        for _ in range(int(rng.integers(0, per_frame + 1))):
            x, y = rng.integers(0, 2, size=2)
            w, h = rng.integers(2, 5, size=2)
            spec.append((f, int(rng.integers(1, 3)), (x, y, x + w, y + h),
                         rng.integers(-1, 2, size=3), rng.random() < 0.2))
    ids = rng.permutation(len(spec)).tolist()
    nodes = [_node(nid, f, class_id=c, bbox=b, centroid=p, motion=(1.0,) if d else None)
             for nid, (f, c, b, p, d) in zip(ids, spec)]
    dynamic = [nid for nid, s in zip(ids, spec) if s[4]]
    graph = _graph(nodes, dynamic=dynamic)
    graph.max_frames = 2 * n_frames
    return graph


def _grid_graphs(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        graph = _grid_graph(rng)
        params = MatchParams(gamma=(1 / 3, 0.5)[k % 2], delta=int(rng.integers(1, 4)))
        yield graph, params
        # merged nodes: each listed in several frames, first source frame its root's
        yield merge_static(graph, oracle_ancestors(graph, params)), params


def _window(graph, v, params):
    by_frame = oracle_static_by_frame(graph)
    frames = range(v.source_frames[0] - params.delta, v.source_frames[0])
    return [w for f in frames for w in by_frame.get(f, ())]


def _coverage(graph, params):
    """Counts of the cases the grids are there to produce: queries whose nearest
    candidates tie in distance, candidate boxes at IoU exactly gamma, merged nodes."""
    ties = at_gamma = 0
    for vid in graph.nodes[graph.static].tolist():
        v = node(graph, vid)
        passing = []
        for wid in set(_window(graph, v, params)):
            w = node(graph, wid)
            at_gamma += v.class_id == w.class_id and iou(v.bbox, w.bbox) == params.gamma
            if criterion(v, w, params):
                passing.append(float(np.linalg.norm(v.centroid3d - w.centroid3d)))
        passing.sort()
        ties += len(passing) > 1 and passing[0] == passing[1]
    merged = np.count_nonzero(np.diff(graph.obs_start)[graph.static] > 1)
    return np.array([ties, at_gamma, merged])


def test_build_ancestors_matches_per_candidate_search():
    seen = 0
    for graph, params in _grid_graphs(11, 60):
        assert build_ancestors(graph, params) == oracle_ancestors(graph, params)
        seen = seen + _coverage(graph, params)
    assert seen.all()


def test_registration_correspondences_match_per_candidate_search():
    for graph, params in _grid_graphs(13, 30):
        src, dst, counts = register.frame_correspondences(graph, gamma=params.gamma)
        ends = np.cumsum(counts)
        seen = list(zip(np.split(src, ends[:-1]), np.split(dst, ends[:-1])))
        expected = oracle_correspondences(graph, params.gamma)
        assert len(seen) == len(expected) == len(graph.frames) - 1 and counts.sum() == len(src) == len(dst)
        for (src, dst), (want_src, want_dst) in zip(seen, expected):
            assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)


def test_tie_breaks_on_the_lower_id_when_a_node_is_listed_in_several_window_frames():
    # node 2's window (frames 0 and 1) lists node 1 twice, before node 0; both lie at distance 1
    one = _node(1, 0, bbox=(-2, 0, 8, 10), centroid=(-1, 0, 0))
    one.source_frames = [0, 1]
    nodes = [_node(0, 1, bbox=(2, 0, 12, 10), centroid=(1, 0, 0)), one, _node(2, 2)]
    g = table(nodes, frames=[(0, [1]), (1, [1, 0]), (2, [2])])
    params = MatchParams(gamma=0.5, delta=2)
    assert build_ancestors(g, params) == oracle_ancestors(g, params) == {0: 0, 1: 1, 2: 0}


def test_register_checks_gamma_on_a_one_frame_graph():
    g = _graph([_node(0, 0), _node(1, 0)])
    with pytest.raises(ValidationError, match="gamma"):
        register_frames(g, gamma=5.0)
    assert register_frames(g) is g


def test_search_on_graphs_without_static_nodes():
    dynamic = [_node(i, i, motion=(1.0,)) for i in range(3)]
    g = _graph(dynamic, dynamic=(0, 1, 2))
    assert build_ancestors(g, MatchParams()) == {}
    rotations, translations = estimate_frame_transforms(g)
    assert rotations.shape == (3, 3, 3) and translations.shape == (3, 3)
    assert build_ancestors(_graph([]), MatchParams()) == {}


def test_search_takes_ids_and_frames_beyond_int64():
    g = _big_graph()
    params = MatchParams(gamma=0.5, delta=2)
    assert build_ancestors(g, params) == oracle_ancestors(g, params)
    rotations, translations = estimate_frame_transforms(g)
    assert rotations.shape == (4, 3, 3) and translations.shape == (4, 3)
