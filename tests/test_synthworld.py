import hashlib
import json
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prism25d.compact import MatchParams, build_ancestors, compact
from prism25d.errors import ValidationError
from prism25d.graph import graphs_from_records
from prism25d.qa import save_qa
from prism25d.register import register_frames
from prism25d.schema import read
from prism25d import synthworld as sw

from helpers import (
    detection,
    generate_world,
    oracle_detection_lines,
    oracle_detections,
    oracle_norms,
    oracle_static_layout,
    oracle_trajectory,
    traced_peak,
)

REG = sw.default_registry()


def test_stationary_single_object_projects_identically():
    spec = sw.WorldSpec(seed=0, video_id="v", n_frames=10, n_static=1, n_dynamic=0)
    records, _ = generate_world(spec)
    assert len(records) == 10
    first = records[0]
    for rec in records[1:]:
        assert rec["bbox"] == first["bbox"]
        assert rec["depth"] == first["depth"]


def test_translating_truth_poses_match_spec_velocity():
    vel = np.array([0.04, 0.01, 0.0])
    spec = sw.WorldSpec(seed=1, video_id="v", n_frames=6, n_static=4, n_dynamic=0,
                        camera=sw.CameraSpec(kind="translating", velocity=tuple(vel)))
    _, truth = generate_world(spec)
    assert np.allclose(truth.rotations, np.eye(3))
    assert np.allclose(truth.translations, np.arange(6)[:, None] * vel, atol=1e-12)


def test_same_seed_byte_identical_files(tmp_path):
    spec = sw.WorldSpec(seed=2, video_id="v", n_frames=6, n_static=4, n_dynamic=2,
                        noise=sw.NoiseSpec(bbox_px=1.0, depth=0.05))
    for name in ("a", "b"):
        records, _ = generate_world(spec)
        sw.write_detections(records, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_write_detections_writes_the_whole_file_writers_bytes(tmp_path):
    # static records carry a null motion_feature, dynamic ones a list; one world is jittered
    records = [rec for seed, noise in ((2, sw.NoiseSpec()), (3, sw.NoiseSpec(bbox_px=1.0, depth=0.05)))
               for rec in generate_world(sw.WorldSpec(seed=seed, video_id=f"v{seed}", n_frames=4, n_static=4,
                                                      n_dynamic=2, noise=noise))[0]]
    assert {rec["motion_feature"] is None for rec in records} == {True, False}
    sw.write_detections(iter(records), tmp_path / "d.jsonl")  # a stream, read once
    assert (tmp_path / "d.jsonl").read_bytes() == oracle_detection_lines(records).encode("utf-8")


def test_write_detections_to_a_target_whose_directory_cannot_be_written(tmp_path, monkeypatch):
    # a target such as /dev/stdout: its own file takes writes, its directory no new file
    made = tempfile.TemporaryFile

    def nothing_beside_the_target(*args, dir=None, **kwargs):
        if dir is not None:
            raise PermissionError(13, "Permission denied", str(dir))
        return made(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", nothing_beside_the_target)
    records, _ = generate_world(sw.WorldSpec(seed=2, video_id="v", n_frames=3, n_static=4, n_dynamic=2))
    sw.write_detections(records, tmp_path / "d.jsonl")
    assert (tmp_path / "d.jsonl").read_bytes() == oracle_detection_lines(records).encode("utf-8")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["bbox", "depth", "feature", "motion_feature"])
def test_a_non_finite_detection_is_refused_and_leaves_the_file(tmp_path, field, value):
    records, _ = generate_world(sw.WorldSpec(seed=2, video_id="v", n_frames=4, n_static=4, n_dynamic=2))
    if field == "depth":
        records[-1]["depth"] = value
    else:
        records[-1][field][-1] = value
    path = tmp_path / "d.jsonl"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(ValidationError, match=f"^video 'v', frame 3: detection holds a non-finite number in {field}$"):
        sw.write_detections(iter(records), path)
    assert path.read_bytes() == b"earlier bytes\n"
    assert list(tmp_path.iterdir()) == [path]  # no file left beside it


def test_write_detections_memory_per_line(tmp_path):
    # lines of about 160 bytes; encoded all before the first is written, each holds about 220
    features = np.eye(4).tolist()
    records = [detection(video_id=f"w{i // 8}", frame=i % 8 // 4, class_id=101 if i % 4 == 3 else 1,
                         feature=features[i % 4], motion=[0.25] * 4 if i % 4 == 3 else None)
               for i in range(6000)]
    sw.write_detections(records[:8], tmp_path / "warm.jsonl")
    small, large = (traced_peak(lambda: sw.write_detections(records[:n], tmp_path / f"d{n}.jsonl"))
                    for n in (3000, 6000))
    assert (large - small) / 3000 < 100


def test_all_detections_inside_image():
    for seed, camera in ((3, sw.CameraSpec()),
                         (4, sw.CameraSpec(kind="translating", velocity=(0.05, 0.0, 0.0))),
                         (5, sw.CameraSpec(kind="orbiting", angular_rate=0.02))):
        spec = sw.WorldSpec(seed=seed, video_id="v", n_frames=8, n_static=5, n_dynamic=2,
                            camera=camera)
        records, _ = generate_world(spec)
        w, h = spec.image_size
        for rec in records:
            x1, y1, x2, y2 = rec["bbox"]
            assert 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h
            assert rec["depth"] > 0


def test_oracle_merge_single_object():
    spec = sw.WorldSpec(seed=6, video_id="v", n_frames=10, n_static=1, n_dynamic=0)
    records, truth = generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert len(classes) == 1 and len(classes[0]) == 10


def test_oracle_merge_three_objects():
    spec = sw.WorldSpec(seed=7, video_id="v", n_frames=5, n_static=3, n_dynamic=0)
    records, truth = generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert sorted(classes) == [0, 1, 2]
    assert all(len(v) == 5 for v in classes.values())


def test_same_class_far_objects_stay_separate():
    # two objects share a class id whenever n_static exceeds the class pool
    spec = sw.WorldSpec(seed=8, video_id="v", n_frames=6, n_static=5, n_dynamic=0,
                        n_static_classes=2)
    records, truth = generate_world(spec)
    classes = sw.oracle_merge(records, truth)
    assert len(classes) == 5
    g = register_frames(graphs_from_records(records, REG)[0])
    merged = compact(g, MatchParams())
    assert np.count_nonzero(merged.static) == 5  # never collapsed into one


def _compactor_classes(records, gamma):
    g = register_frames(graphs_from_records(records, REG)[0], gamma=gamma)
    anc = build_ancestors(g, MatchParams(gamma=gamma, delta=3))
    groups = {}
    for nid, root in anc.items():
        groups.setdefault(root, set()).add(nid)
    return sorted(map(frozenset, groups.values()), key=sorted)


def test_compactor_recovers_oracle_for_any_gamma_when_stationary():
    spec = sw.WorldSpec(seed=9, video_id="v", n_frames=8, n_static=5, n_dynamic=2)
    records, truth = generate_world(spec)
    want = sorted(map(frozenset, sw.oracle_merge(records, truth).values()), key=sorted)
    for gamma in (0.05, 0.3, 0.7, 0.95):
        assert _compactor_classes(records, gamma) == want


def test_compactor_recovers_oracle_after_registration_moving_camera():
    for seed, camera in ((10, sw.CameraSpec(kind="translating", velocity=(0.05, 0.0, 0.0))),
                         (11, sw.CameraSpec(kind="orbiting", angular_rate=0.02))):
        spec = sw.WorldSpec(seed=seed, video_id="v", n_frames=8, n_static=5, n_dynamic=1,
                            camera=camera)
        records, truth = generate_world(spec)
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
    g = compact(register_frames(graphs_from_records(records, REG)[0]), MatchParams())
    instances, derivations = sw.generate_qa(world, truth, "nearest_static", 2, seed=0)
    statics = np.flatnonzero(g.static)
    for inst, der in zip(instances, derivations):
        d = der["dynamic"]
        dyn_rows = [r for r in np.flatnonzero(~g.static)
                    if np.argmax(g.features[r]) == world.spec.d_o // 2 + d]
        best, best_dist = None, np.inf
        for s_row in statics:
            s_pos = g.centroids[s_row]
            dist = min(np.linalg.norm(g.centroids[r] - s_pos) for r in dyn_rows)
            if dist < best_dist:
                best, best_dist = s_row, dist
        # static node identity encodes the world object index in its feature
        assert int(np.argmax(g.features[best])) == der["answer_object"]


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


def test_world_spec_json_round_trip():
    spec = sw.WorldSpec(seed=3, video_id="r", n_frames=5, image_size=(320, 240),
                        camera=sw.CameraSpec("orbiting", angular_rate=0.02),
                        noise=sw.NoiseSpec(bbox_px=1.5), extent_range=(1, 2))
    assert read(sw.WorldSpec, json.loads(json.dumps(asdict(spec))), partial=True) == spec
    # a partial spec takes the defaults, ints given for floats included
    partial = {"seed": 3, "video_id": "r", "view_distance": 6}
    assert read(sw.WorldSpec, partial, partial=True) == sw.WorldSpec(3, "r")



# Specs whose generated files are pinned byte for byte: each camera kind with each noise
# combination, edge-sized worlds, and rejected specs (their messages are pinned too).
_PINNED_SPECS = [
    {"camera": camera, "noise": {"bbox_px": bbox_px, "depth": depth}}
    for camera in ({"kind": "stationary"}, {"kind": "translating", "velocity": [0.02, 0.01, -0.01]},
                   {"kind": "orbiting", "angular_rate": 0.01})
    for bbox_px in (0.0, 1.5) for depth in (0.0, 0.05)
] + [
    {"n_frames": 1},
    {"n_dynamic": 0},
    {"n_frames": 10, "n_static": 6, "traj_targets": 2},
    {"n_static_classes": 1},
    {"image_size": [320, 200], "noise": {"bbox_px": 1.0, "depth": 0.02}},
    {"seed": 13, "view_distance": 3.5},  # objects at the image border: a margin 0.5 px
    {"seed": 15, "view_distance": 3.5},  # wider (seed 13) or narrower (seed 15) changes these
    {"n_frames": 0},
    {"d_a": 2},
    {"static_separation": 1e9},
    {"view_distance": 0.3},
    {"noise": {"bbox_px": 1e308}},
]
# recorded from the per-object generator that the array projection replaced, with the last
# spec's refusal naming its video, frame and field
PINNED_DIGEST = "6d865b56aa2b4113e3997ea57482976868b34ed9bacbafcb752672542992c8cc"


def _generated_bytes(spec_json: dict, tmp_path) -> bytes:
    """Detections, then per task the QA file and the truth file with its derivations."""
    try:
        world = sw.build_world(read(sw.WorldSpec, spec_json, partial=True))
        sw.write_detections(sw.world_detections(world), tmp_path / "d.jsonl")
    except ValidationError as exc:
        return f"rejected: {exc}".encode()
    truth = sw.world_truth(world)
    out = [(tmp_path / "d.jsonl").read_bytes()]
    for task in sw.TASK_TOKENS:
        try:
            instances, truth.qa = sw.generate_qa(world, truth, task, 3, seed=1)
        except ValidationError as exc:
            out.append(f"rejected: {exc}".encode())
            continue
        save_qa(instances, tmp_path / "q.jsonl")
        out += [(tmp_path / "q.jsonl").read_bytes(), json.dumps(truth.to_json()).encode()]
    return b"\n".join(out)


def test_generated_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for i, kw in enumerate(_PINNED_SPECS):
        spec = {"seed": 40 + i, "video_id": f"p{i}", "n_frames": 5, "n_static": 4, "n_dynamic": 4, **kw}
        digest.update(_generated_bytes(spec, tmp_path))
    assert digest.hexdigest() == PINNED_DIGEST


# Crowded worlds like the graphs benchmark's: 6 statics over 16 frames, each camera
# kind, 1 px box jitter on half of them. Most of their layouts are abandoned, so
# these pin the layout sampler where PINNED_DIGEST's specs barely reach it.
_CROWDED_CAMERAS = (
    {"kind": "stationary"},
    {"kind": "translating", "velocity": [0.015, 0.005, 0.005]},
    {"kind": "orbiting", "angular_rate": 0.005},
)
# recorded from the sampler that tested one layout candidate at a time
CROWDED_DIGEST = "5819c8b38bcef858e19d04f4c256be39cad78bb66def1b0fe5b89bb1d095667e"


def test_crowded_detections_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for k in range(24):
        spec = read(sw.WorldSpec, {
            "seed": 500 + k, "video_id": f"c{k}", "n_frames": 16, "n_static": 6, "n_dynamic": 2,
            "camera": _CROWDED_CAMERAS[k % 3], "noise": {"bbox_px": 1.0 if (k // 3) % 2 else 0.0},
        }, partial=True)
        try:
            sw.write_detections(sw.world_detections(sw.build_world(spec)), tmp_path / "d.jsonl")
        except ValidationError as exc:
            digest.update(f"rejected: {exc}".encode())
            continue
        digest.update(hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).digest())
    assert digest.hexdigest() == CROWDED_DIGEST


@pytest.mark.parametrize("n_static, separation, abandoned", [(4, 1.0, False), (8, 1.8, True)],
                         ids=["placed", "abandoned"])
def test_layout_sampler_leaves_the_stream_where_one_at_a_time_draws_do(n_static, separation,
                                                                      abandoned):
    """From a stream holding a buffered 32-bit half, as `rng.choice` leaves it, the block
    sampler ends on the one-at-a-time sampler's whole state, buffer included."""
    spec = sw.WorldSpec(seed=3, video_id="s", n_static=n_static, static_separation=separation)
    ends = []
    for sample in (oracle_static_layout, sw._sample_static_layout):
        rng = np.random.default_rng(spec.seed)
        rng.choice(6, size=1, replace=False)
        assert rng.bit_generator.state["has_uint32"] == 1
        layout = sample(spec, rng)
        assert (layout is None) == abandoned
        ends.append((None if layout is None else layout.tobytes(), rng.bit_generator.state))
    assert ends[1] == ends[0]


def _built(spec):
    """A spec's world, or the message of the error that refuses it."""
    try:
        return sw.build_world(spec)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), n_static=st.integers(4, 8), separation=st.floats(1.0, 1.8),
       camera=st.sampled_from(_CROWDED_CAMERAS), n_frames=st.integers(1, 24),
       n_dynamic=st.integers(0, 4), traj_targets=st.integers(1, 2))
def test_block_sampler_matches_one_candidate_at_a_time(seed, n_static, separation, camera, n_frames,
                                                        n_dynamic, traj_targets):
    spec = read(sw.WorldSpec, {
        "seed": seed, "video_id": "o", "n_frames": n_frames, "n_static": n_static,
        "n_dynamic": n_dynamic, "static_separation": separation, "camera": camera,
        "traj_targets": traj_targets,
    }, partial=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sw, "_sample_static_layout", oracle_static_layout)
        patch.setattr(sw, "_sample_trajectory", oracle_trajectory)
        patch.setattr(sw, "norms", oracle_norms)
        want = _built(spec)
    got = _built(spec)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("static_positions", "dynamic_tracks", "boxes", "depths"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.dynamic_targets == want.dynamic_targets
    assert json.dumps(sw.world_detections(got)) == json.dumps(oracle_detections(want))
