import numpy as np
import pytest

from prism25d.compact import MatchParams, build_ancestors, compact
from prism25d.errors import ValidationError
from prism25d.graph import graph_from_records
from prism25d.register import register_frames
from prism25d import synthworld as sw

REG = sw.default_registry()


def test_stationary_single_object_projects_identically():
    spec = sw.WorldSpec(seed=0, video_id="v", n_frames=10, n_static=1, n_dynamic=0)
    records, _ = sw.generate_world(spec)
    assert len(records) == 10
    first = records[0]
    for rec in records[1:]:
        assert rec["bbox"] == first["bbox"]
        assert rec["depth"] == first["depth"]


def test_translating_truth_poses_match_spec_velocity():
    vel = np.array([0.04, 0.01, 0.0])
    spec = sw.WorldSpec(seed=1, video_id="v", n_frames=6, n_static=4, n_dynamic=0,
                        camera=sw.CameraSpec(kind="translating", velocity=tuple(vel)))
    _, truth = sw.generate_world(spec)
    for k, pose in enumerate(truth.poses):
        assert np.allclose(pose.rotation, np.eye(3))
        assert np.allclose(pose.translation, k * vel, atol=1e-12)


def test_same_seed_byte_identical_files(tmp_path):
    spec = sw.WorldSpec(seed=2, video_id="v", n_frames=6, n_static=4, n_dynamic=2,
                        noise=sw.NoiseSpec(bbox_px=1.0, depth=0.05))
    for name in ("a", "b"):
        records, _ = sw.generate_world(spec)
        sw.write_detections(records, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_all_detections_inside_image():
    for seed, camera in ((3, sw.CameraSpec()),
                         (4, sw.CameraSpec(kind="translating", velocity=(0.05, 0.0, 0.0))),
                         (5, sw.CameraSpec(kind="orbiting", angular_rate=0.02))):
        spec = sw.WorldSpec(seed=seed, video_id="v", n_frames=8, n_static=5, n_dynamic=2,
                            camera=camera)
        records, _ = sw.generate_world(spec)
        w, h = spec.image_size
        for rec in records:
            x1, y1, x2, y2 = rec["bbox"]
            assert 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h
            assert rec["depth"] > 0


def test_oracle_merge_single_object():
    spec = sw.WorldSpec(seed=6, video_id="v", n_frames=10, n_static=1, n_dynamic=0)
    records, truth = sw.generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert len(classes) == 1 and len(classes[0]) == 10


def test_oracle_merge_three_objects():
    spec = sw.WorldSpec(seed=7, video_id="v", n_frames=5, n_static=3, n_dynamic=0)
    records, truth = sw.generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert sorted(classes) == [0, 1, 2]
    assert all(len(v) == 5 for v in classes.values())


def test_same_class_far_objects_stay_separate():
    # two objects share a class id whenever n_static exceeds the class pool
    spec = sw.WorldSpec(seed=8, video_id="v", n_frames=6, n_static=5, n_dynamic=0,
                        n_static_classes=2)
    records, truth = sw.generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert len(classes) == 5
    g = register_frames(graph_from_records(records, REG))
    merged = compact(g, MatchParams())
    assert len(merged.static_nodes) == 5  # never collapsed into one


def _compactor_classes(records, gamma):
    g = register_frames(graph_from_records(records, REG), gamma=gamma)
    anc = build_ancestors(g, MatchParams(gamma=gamma, delta=3))
    groups = {}
    for nid, root in anc.items():
        groups.setdefault(root, set()).add(nid)
    return sorted(map(frozenset, groups.values()), key=sorted)


def test_compactor_recovers_oracle_for_any_gamma_when_stationary():
    spec = sw.WorldSpec(seed=9, video_id="v", n_frames=8, n_static=5, n_dynamic=2)
    records, truth = sw.generate_world(spec)
    want = sorted(map(frozenset, sw.oracle_merge(records, truth).values()), key=sorted)
    for gamma in (0.05, 0.3, 0.7, 0.95):
        assert _compactor_classes(records, gamma) == want


def test_compactor_recovers_oracle_after_registration_moving_camera():
    for seed, camera in ((10, sw.CameraSpec(kind="translating", velocity=(0.05, 0.0, 0.0))),
                         (11, sw.CameraSpec(kind="orbiting", angular_rate=0.02))):
        spec = sw.WorldSpec(seed=seed, video_id="v", n_frames=8, n_static=5, n_dynamic=1,
                            camera=camera)
        records, truth = sw.generate_world(spec)
        want = sorted(map(frozenset, sw.oracle_merge(records, truth).values()), key=sorted)
        for gamma in (0.3, 0.5):
            assert _compactor_classes(records, gamma) == want


def test_infeasible_spec_raises():
    spec = sw.WorldSpec(seed=12, video_id="v", n_frames=8, n_static=8, n_dynamic=0,
                        static_separation=5.0)  # cannot fit in the placement box
    with pytest.raises(ValidationError):
        sw.build_world(spec)


# -- QA generation ----------------------------------------------------------------


def _world(seed, **kw):
    spec = sw.WorldSpec(seed=seed, video_id=f"w{seed}", **kw)
    world = sw.build_world(spec)
    return world, sw.world_truth(world)


def test_nearest_static_answer_matches_designated_target():
    world, truth = _world(13, n_frames=8, n_static=6, n_dynamic=2)
    instances, derivations = sw.generate_qa(world, truth, "nearest_static", 4, seed=0)
    assert len(instances) == 4
    for inst, der in zip(instances, derivations):
        d = der["dynamic"]
        # trajectory construction pins the nearest static to the designated target
        assert der["answer_object"] == world.dynamic_targets[d][0]
        gt_token = inst.candidates[inst.gt_index][0]
        assert gt_token == sw.STATIC_TOKEN_BASE + der["answer_object"]
        assert len(inst.candidates) == sw.N_CANDIDATES
        assert len(set(inst.candidates)) == sw.N_CANDIDATES


def test_nearest_static_answer_solvable_from_compacted_graph():
    world, truth = _world(14, n_frames=8, n_static=6, n_dynamic=2)
    records = sw.world_detections(world)
    g = compact(register_frames(graph_from_records(records, REG)), MatchParams())
    instances, derivations = sw.generate_qa(world, truth, "nearest_static", 2, seed=0)
    statics = sorted(g.static_nodes)
    for inst, der in zip(instances, derivations):
        d = der["dynamic"]
        dyn_nodes = [g.nodes[n] for n in g.dynamic_nodes
                     if np.argmax(g.nodes[n].feature) == world.spec.d_o // 2 + d]
        best, best_dist = None, np.inf
        for s_nid in statics:
            s_pos = g.nodes[s_nid].centroid3d
            dist = min(np.linalg.norm(n.centroid3d - s_pos) for n in dyn_nodes)
            if dist < best_dist:
                best, best_dist = s_nid, dist
        # static node identity encodes the world object index in its feature
        assert int(np.argmax(g.nodes[best].feature)) == der["answer_object"]


def test_visited_order_answer_is_first_reached():
    world, truth = _world(15, n_frames=10, n_static=6, n_dynamic=2, traj_targets=2)
    instances, derivations = sw.generate_qa(world, truth, "visited_order", 2, seed=0)
    for inst, der in zip(instances, derivations):
        reach = der["reach_frames"]
        reached = [(f, s) for s, f in enumerate(reach) if f >= 0]
        assert der["answer_object"] == min(reached)[1]
        assert inst.question[0] == sw.TASK_TOKENS["visited_order"]


def test_count_dynamic_counts_and_zero_case():
    world, truth = _world(16, n_frames=8, n_static=6, n_dynamic=4)
    instances, derivations = sw.generate_qa(world, truth, "count_dynamic", 12, seed=0)
    saw_zero = False
    for inst, der in zip(instances, derivations):
        s = der["static"]
        want = sum(
            1 for d in range(world.spec.n_dynamic)
            if np.linalg.norm(world.dynamic_tracks[d] - world.static_positions[s], axis=1).min()
            < sw.COUNT_RADIUS
        )
        assert der["answer_count"] == want
        assert inst.candidates[inst.gt_index][0] == sw.COUNT_TOKEN_BASE + want
        saw_zero = saw_zero or want == 0
    assert saw_zero  # some static object has no visitors in this world


def test_qa_generation_deterministic():
    world, truth = _world(17, n_frames=8, n_static=6, n_dynamic=2)
    a, _ = sw.generate_qa(world, truth, "nearest_static", 100, seed=3)
    b, _ = sw.generate_qa(world, truth, "nearest_static", 100, seed=3)
    assert a == b
    c, _ = sw.generate_qa(world, truth, "nearest_static", 100, seed=4)
    assert a != c


def test_qa_world_too_small_errors():
    world1, truth1 = _world(18, n_frames=4, n_static=1, n_dynamic=1, n_static_classes=1)
    with pytest.raises(ValidationError):
        sw.generate_qa(world1, truth1, "nearest_static", 1, seed=0)
    world2, truth2 = _world(19, n_frames=4, n_static=4, n_dynamic=2)
    with pytest.raises(ValidationError):
        sw.generate_qa(world2, truth2, "count_dynamic", 1, seed=0)
    with pytest.raises(ValidationError):
        sw.generate_qa(world2, truth2, "no_such_task", 1, seed=0)


def test_token_ranges_disjoint():
    assert sw.PAD_TOKEN == 0
    ranges = [
        set(sw.TASK_TOKENS.values()),
        set(range(sw.STATIC_TOKEN_BASE, sw.DYNAMIC_TOKEN_BASE)),
        set(range(sw.DYNAMIC_TOKEN_BASE, sw.COUNT_TOKEN_BASE)),
        set(range(sw.COUNT_TOKEN_BASE, sw.VOCAB_SIZE)),
    ]
    for i, a in enumerate(ranges):
        assert 0 not in a
        for b in ranges[i + 1:]:
            assert not (a & b)


def test_build_world_pure_function_of_spec():
    spec = sw.WorldSpec(seed=20, video_id="v", n_frames=6, n_static=5, n_dynamic=2)
    w1, w2 = sw.build_world(spec), sw.build_world(spec)
    assert np.array_equal(w1.static_positions, w2.static_positions)
    assert np.array_equal(w1.dynamic_tracks, w2.dynamic_tracks)
    assert w1.dynamic_targets == w2.dynamic_targets
