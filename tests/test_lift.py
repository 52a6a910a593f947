import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from prism25d.errors import ValidationError
from prism25d.graph import ClassRegistry, graphs_from_records
from prism25d.lift import Intrinsics, default_intrinsics, estimate_rigid, fit_rigid, lift_centroid
from prism25d.register import (
    _correspondences, estimate_frame_transforms, register_frames, register_graphs,
)
from prism25d import synthworld as sw

from helpers import (
    IDENTITY, OVERFLOW_DETECTIONS, OVERFLOW_REGISTRY, is_proper_rotation, listings, node, oracle_rigid,
    rigid_allclose,
)


INTR = Intrinsics(fx=100.0, fy=100.0, cx=64.0, cy=64.0)


def test_lift_principal_point():
    bbox = (INTR.cx - 5, INTR.cy - 5, INTR.cx + 5, INTR.cy + 5)
    assert np.allclose(lift_centroid(bbox, 2.0, INTR), [0.0, 0.0, 2.0])


def test_lift_one_focal_length_off_axis():
    # center at (cx + fx, cy): x = (u - cx) * depth / fx = depth
    u = INTR.cx + INTR.fx
    bbox = (u - 3, INTR.cy - 3, u + 3, INTR.cy + 3)
    assert np.allclose(lift_centroid(bbox, 3.0, INTR), [3.0, 0.0, 3.0])


def test_default_intrinsics():
    intr = default_intrinsics(640, 480)
    assert (intr.fx, intr.fy, intr.cx, intr.cy) == (640.0, 640.0, 320.0, 240.0)


def _noncollinear_points(rng, n=6):
    return rng.uniform(-2, 2, size=(n, 3))


def test_estimate_rigid_identity_on_equal_sets():
    pts = _noncollinear_points(np.random.default_rng(0))
    assert rigid_allclose(estimate_rigid(pts, pts), IDENTITY, tol=1e-12)


def test_estimate_rigid_pure_translation():
    pts = _noncollinear_points(np.random.default_rng(1), n=4)
    rot, trans = estimate_rigid(pts, pts + np.array([1.0, 2.0, 3.0]))
    assert np.linalg.norm(rot - np.eye(3)) < 1e-9
    assert np.linalg.norm(trans - [1.0, 2.0, 3.0]) < 1e-9


def test_estimate_rigid_degenerate_fallbacks():
    two = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert rigid_allclose(estimate_rigid(two, two + 5.0), IDENTITY)
    collinear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert rigid_allclose(estimate_rigid(collinear, collinear + 1.0), IDENTITY)


def test_estimate_rigid_falls_back_exactly_when_matrix_rank_is_below_two():
    rng = np.random.default_rng(13)
    rot = Rotation.from_euler("xyz", [0.4, 0.1, -0.3]).as_matrix()
    line = np.outer(np.arange(6.0), [1.0, 2.0, -0.5])
    for k in range(60):
        scale = 10.0 ** -rng.integers(8, 19)  # around the rank tolerance of a line
        src = line + scale * rng.normal(size=line.shape) if k % 3 else rng.normal(size=(5, 3))
        fell_back = rigid_allclose(estimate_rigid(src, src @ rot.T), IDENTITY, 0.0)
        assert fell_back == (np.linalg.matrix_rank(src - src.mean(axis=0)) < 2)


def test_estimate_rigid_length_mismatch():
    with pytest.raises(ValidationError):
        estimate_rigid(np.zeros((3, 3)), np.zeros((4, 3)))


def test_estimate_rigid_rejects_points_not_shaped_k_by_3():
    for src, dst in ((np.zeros((2, 6)), np.zeros((4, 3))), (np.zeros(9), np.zeros((3, 3))),
                     (np.zeros((3, 3)), np.zeros((3, 3, 1))), (np.zeros((3, 2)), np.zeros((3, 2)))):
        bad = str(src.shape if src.shape[1:] != (3,) else dst.shape)
        with pytest.raises(ValidationError, match=rf"must have shape \(k, 3\), got {re.escape(bad)}"):
            estimate_rigid(src, dst)


def _random_pair(rng):
    """A (src, dst) pair of 0-8 points: general, coincident, collinear at the rank
    tolerance, or reflected, at a scale from 1e-3 to 1e3."""
    k = int(rng.integers(0, 9))
    kind = rng.integers(4)
    if kind == 1:  # coincident: all points one point, or a general set with a repeat
        src = np.repeat(rng.normal(size=(1, 3)), k, axis=0)
        if k > 3 and rng.integers(2):
            src[1:] = rng.normal(size=(k - 1, 3))
            src[-1] = src[0]
    elif kind == 2:  # on a line, plus noise around matrix_rank's tolerance
        src = np.outer(rng.normal(size=k), rng.normal(size=3))
        src += 10.0 ** -rng.integers(8, 19) * rng.normal(size=(k, 3))
    else:
        src = rng.normal(size=(k, 3))
    src = src * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=3)
    rot = Rotation.random(random_state=int(rng.integers(1 << 30))).as_matrix()
    if kind == 3:
        rot = rot @ np.diag([1.0, 1.0, -1.0])  # a reflection: the fit flips its last axis
    dst = src @ rot.T + rng.normal(size=3) + 1e-3 * rng.normal(size=(k, 3))
    return src, dst


def test_fit_rigid_equals_one_fit_per_pair_bit_for_bit():
    rng = np.random.default_rng(17)
    pairs = [_random_pair(rng) for _ in range(2400)]
    counts = [len(src) for src, _ in pairs]
    rot, trans = fit_rigid(np.concatenate([src for src, _ in pairs]),
                           np.concatenate([dst for _, dst in pairs]), counts)
    want_rot, want_trans = zip(*(oracle_rigid(src, dst) for src, dst in pairs))
    assert rot.tobytes() == np.stack(want_rot).tobytes()
    assert trans.tobytes() == np.stack(want_trans).tobytes()
    # every count from 0 to 8 came up, and of the pairs with 3 or more points some fell back and some did not
    fell_back = (rot == np.eye(3)).all(axis=(1, 2)) & (trans == 0.0).all(axis=1)
    assert set(counts) == set(range(9))
    assert fell_back[np.array(counts) >= 3].any() and not fell_back[np.array(counts) >= 3].all()


def test_estimate_rigid_recovers_random_transforms():
    rng = np.random.default_rng(7)
    for k in range(30):
        rot = Rotation.random(random_state=int(rng.integers(1 << 30))).as_matrix()
        trans = rng.uniform(-3, 3, size=3)
        src = _noncollinear_points(rng, n=int(rng.integers(3, 10)))
        dst = src @ rot.T + trans
        est_rot, est_trans = estimate_rigid(src, dst)
        assert np.linalg.norm(est_rot - rot) < 1e-9
        assert np.linalg.norm(est_trans - trans) < 1e-9


def test_estimate_rigid_output_always_proper_rotation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        src = rng.normal(size=(5, 3))
        dst = rng.normal(size=(5, 3))  # arbitrary, even non-rigid pairs
        rot, _ = estimate_rigid(src, dst)
        assert is_proper_rotation(rot, tol=1e-9)


# -- registration over synthetic worlds --------------------------------------


def _world_graph(spec):
    world = sw.build_world(spec)
    records = sw.world_detections(world)
    truth = sw.world_truth(world)
    g = graphs_from_records(records, sw.default_registry())[0]
    return world, records, truth, g


def test_register_stationary_is_identity():
    spec = sw.WorldSpec(seed=5, video_id="s", n_frames=6, n_static=4, n_dynamic=1)
    _, _, _, g = _world_graph(spec)
    for t in zip(*estimate_frame_transforms(g)):
        assert rigid_allclose(t, IDENTITY, tol=1e-12)
    registered = register_frames(g)
    assert np.allclose(registered.centroids, g.centroids, atol=1e-12)


def test_register_translating_maps_statics_onto_frame0():
    spec = sw.WorldSpec(
        seed=8, video_id="t", n_frames=8, n_static=5, n_dynamic=1,
        camera=sw.CameraSpec(kind="translating", velocity=(0.05, 0.0, 0.0)),
    )
    world, records, truth, g = _world_graph(spec)
    registered = register_frames(g)
    static = set(registered.nodes[registered.static].tolist())
    frame0 = {
        truth.detection_to_object[nid]: registered.centroids[nid]
        for nid in listings(registered)[0][1]
        if nid in static
    }
    for nid in static:
        obj = truth.detection_to_object[nid]
        assert np.linalg.norm(registered.centroids[nid] - frame0[obj]) < 1e-6


def test_register_single_frame_unchanged():
    spec = sw.WorldSpec(seed=9, video_id="one", n_frames=1, n_static=3, n_dynamic=1)
    _, _, _, g = _world_graph(spec)
    assert register_frames(g) is g


def test_register_preserves_everything_but_centroids():
    spec = sw.WorldSpec(
        seed=12, video_id="p", n_frames=6, n_static=5, n_dynamic=2,
        camera=sw.CameraSpec(kind="orbiting", angular_rate=0.02),
    )
    _, _, _, g = _world_graph(spec)
    registered = register_frames(g)
    for f in fields(g):
        if f.name != "centroids":
            assert np.array_equal(getattr(registered, f.name), getattr(g, f.name)), f.name


def test_register_idempotent_on_stationary():
    spec = sw.WorldSpec(seed=13, video_id="i", n_frames=5, n_static=4, n_dynamic=1)
    _, _, _, g = _world_graph(spec)
    once = register_frames(g)
    twice = register_frames(once)
    assert np.allclose(once.centroids, twice.centroids, atol=1e-12)


def test_pose_recovery_translating_and_orbiting():
    for seed, camera in (
        (31, sw.CameraSpec(kind="translating", velocity=(0.04, 0.02, 0.0))),
        (32, sw.CameraSpec(kind="orbiting", angular_rate=0.02)),
    ):
        spec = sw.WorldSpec(seed=seed, video_id=f"c{seed}", n_frames=8, n_static=5,
                            n_dynamic=1, camera=camera)
        _, _, truth, g = _world_graph(spec)
        rotations, translations = estimate_frame_transforms(g)
        assert rotations.shape == truth.rotations.shape and translations.shape == truth.translations.shape
        assert np.linalg.norm(rotations - truth.rotations, axis=(1, 2)).max() < 1e-6
        assert np.linalg.norm(translations - truth.translations, axis=1).max() < 1e-6


def test_register_falls_back_silently_where_a_mean_centroid_overflows():
    g = graphs_from_records(OVERFLOW_DETECTIONS, ClassRegistry.from_json(OVERFLOW_REGISTRY))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transforms = estimate_frame_transforms(g)
        registered = register_frames(g)
    assert all(rigid_allclose(t, IDENTITY, 0.0) for t in zip(*transforms))
    assert registered == g


def test_registered_centroids_equal_per_point_apply():
    for seed, camera in (
        (41, sw.CameraSpec(kind="translating", velocity=(0.04, 0.02, 0.01))),
        (42, sw.CameraSpec(kind="orbiting", angular_rate=0.02)),
    ):
        spec = sw.WorldSpec(seed=seed, video_id=f"a{seed}", n_frames=8, n_static=5,
                            n_dynamic=2, camera=camera)
        _, _, _, g = _world_graph(spec)
        by_frame = dict(zip(g.frames.tolist(), zip(*estimate_frame_transforms(g))))
        registered = register_frames(g)
        for nid in g.nodes.tolist():
            rot, trans = by_frame[node(g, nid).source_frames[0]]
            expect = g.centroids[nid] @ rot.T + trans
            assert np.array_equal(registered.centroids[nid], expect)


def _stacked_worlds():
    """Graphs of 8, 1, 2 and 8 frames, under a translating and an orbiting camera with 1 px
    box jitter; the 2-frame world has two static objects, so its one pair falls back."""
    jitter = sw.NoiseSpec(bbox_px=1.0)
    specs = [
        sw.WorldSpec(seed=51, video_id="t8", n_frames=8, n_static=5, n_dynamic=2, noise=jitter,
                     camera=sw.CameraSpec(kind="translating", velocity=(0.04, 0.02, 0.01))),
        sw.WorldSpec(seed=52, video_id="one", n_frames=1, n_static=3, n_dynamic=1),
        sw.WorldSpec(seed=53, video_id="few", n_frames=2, n_static=2, n_dynamic=1, noise=jitter,
                     camera=sw.CameraSpec(kind="translating", velocity=(0.04, 0.0, 0.0))),
        sw.WorldSpec(seed=54, video_id="o8", n_frames=8, n_static=5, n_dynamic=2, noise=jitter,
                     camera=sw.CameraSpec(kind="orbiting", angular_rate=0.02)),
    ]
    return [_world_graph(spec)[3] for spec in specs]


def test_stacked_registration_equals_one_video_at_a_time():
    graphs = _stacked_worlds()
    assert [len(g.frames) for g in graphs] == [8, 1, 2, 8]
    assert _correspondences(graphs[2], 0.5)[2].tolist() == [0, 2]  # the identity fallback
    for order in (graphs, graphs[::-1]):
        stacked = register_graphs(order)
        assert len(stacked) == len(order)
        for graph, registered in zip(order, stacked):
            assert registered.centroids.tobytes() == register_frames(graph).centroids.tobytes()
    assert register_graphs(graphs)[1] is graphs[1]
    assert not np.array_equal(register_graphs(graphs)[3].centroids, graphs[3].centroids)


def test_stacked_registration_of_no_graphs_checks_gamma():
    assert register_graphs([]) == []
    with pytest.raises(ValidationError, match="gamma must lie in"):
        register_graphs([], gamma=1.5)


def test_lift_rows_equal_one_box_at_a_time():
    rng = np.random.default_rng(4)
    corner = rng.uniform(0, 200, size=(50, 2))
    boxes = np.hstack([corner, corner + rng.uniform(1, 50, size=(50, 2))])
    depths = rng.uniform(0.5, 9.0, size=50)
    rows = lift_centroid(boxes, depths, INTR)
    assert rows.shape == (50, 3)
    for (x1, y1, x2, y2), depth, row in zip(boxes.tolist(), depths.tolist(), rows):
        # one box in Python floats, in the array expression's operation order
        u, v = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        expect = [(u - INTR.cx) * depth / INTR.fx, (v - INTR.cy) * depth / INTR.fy, depth]
        assert row.tolist() == expect
