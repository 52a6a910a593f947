import json

import numpy as np
import pytest

from prism25d.errors import FormatError, ParseError, RegistryError, ValidationError
from prism25d.graph import (
    graph_from_records,
    load_corpus,
    load_detection_groups,
    load_detections,
    load_graph,
    save_corpus,
    save_graph,
    split_static_dynamic,
)

from helpers import detection, write_jsonl


def test_load_counts_two_frames_three_each(tmp_path, registry):
    recs = [detection(frame=f, class_id=c, bbox=(10 + 60 * i, 10, 50 + 60 * i, 50),
                      motion=(0.5,) if c == 101 else None)
            for f in (0, 1)
            for i, c in enumerate((1, 2, 101))]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    g = load_detections(path, registry)
    assert g.node_count() == 6
    assert [len(fs.node_ids) for fs in g.frames] == [3, 3]


def test_static_class_lands_in_static_set(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=1)])
    g = load_detections(path, registry)
    assert g.static_nodes == {0} and not g.dynamic_nodes


def test_timestamp_normalization(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(frame=5)])
    g = load_detections(path, registry, max_frames=10)
    assert g.nodes[0].timestamps == [0.5]


def test_last_frame_timestamp_below_one(registry):
    n = 7
    recs = [detection(frame=n - 1)]
    g = graph_from_records(recs, registry, max_frames=n)
    assert g.nodes[0].timestamps == [(n - 1) / n] and g.nodes[0].timestamps[0] < 1.0


def test_malformed_line_reports_line_number(tmp_path, registry):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(detection()) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_detections(path, registry)
    assert exc.value.line == 2


def test_unknown_class_rejected(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=999)])
    with pytest.raises(RegistryError):
        load_detections(path, registry)


def test_degenerate_bbox_rejected(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(bbox=(50, 10, 10, 50))])
    with pytest.raises(ValidationError):
        load_detections(path, registry)


def test_motion_feature_kind_mismatch_rejected(registry):
    with pytest.raises(ValidationError):
        graph_from_records([detection(class_id=1, motion=(0.1,))], registry)
    with pytest.raises(ValidationError):
        graph_from_records([detection(class_id=101, motion=None)], registry)


def test_combined_feature_lengths(registry):
    recs = [
        detection(frame=0, class_id=1, feature=np.arange(16.0)),
        detection(frame=0, class_id=101, bbox=(60, 10, 90, 40), feature=np.arange(16.0),
                  motion=np.arange(8.0)),
    ]
    g = graph_from_records(recs, registry)
    assert len(g.nodes[0].combined_feature) == 16
    assert len(g.nodes[1].combined_feature) == 24
    assert np.array_equal(g.nodes[1].combined_feature[16:], np.arange(8.0))


def test_non_finite_depth_rejected_by_lift(registry):
    for depth in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            graph_from_records([detection(depth=depth)], registry)


def test_and_lift_applied_on_load(registry):
    # bbox centered on the principal point lifts onto the optical axis
    g = graph_from_records(
        [detection(bbox=(118.0, 118.0, 138.0, 138.0), depth=2.0)], registry
    )
    assert np.allclose(g.nodes[0].centroid3d, [0.0, 0.0, 2.0])


def _sample_graph(registry):
    recs = [
        detection(frame=0, class_id=1, bbox=(10, 10, 50, 50)),
        detection(frame=0, class_id=101, bbox=(60, 10, 90, 40), motion=(0.5, 0.25)),
        detection(frame=1, class_id=2, bbox=(12, 11, 52, 49)),
        detection(frame=1, class_id=102, bbox=(61, 12, 91, 41), motion=(0.0, 1.0)),
    ]
    return graph_from_records(recs, registry)


def test_roundtrip_bit_exact(tmp_path, registry):
    g = _sample_graph(registry)
    # awkward floats survive the round trip exactly
    g.nodes[0].feature = np.array([0.1 + 0.2, 1e-17, -0.0])
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path).equals(g)
    save_graph(load_graph(path), tmp_path / "g2.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_roundtrip_empty_frames_graph(tmp_path, registry):
    g = _sample_graph(registry)
    g.nodes = {}
    g.frames = []
    g.static_nodes = set()
    g.dynamic_nodes = set()
    save_graph(g, tmp_path / "g.json")
    assert load_graph(tmp_path / "g.json").equals(g)


def test_wrong_version_rejected(tmp_path, registry):
    g = _sample_graph(registry)
    path = tmp_path / "g.json"
    save_graph(g, path)
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        load_graph(path)
    obj["version"] = 1
    obj["format"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        load_graph(path)


def test_corpus_roundtrip(tmp_path, registry):
    g1 = _sample_graph(registry)
    recs = [detection(video_id="w2", class_id=2)]
    g2 = graph_from_records(recs, registry)
    path = tmp_path / "c.json"
    save_corpus([g1, g2], path)
    loaded = load_corpus(path)
    assert len(loaded) == 2
    assert loaded[0].equals(g1) and loaded[1].equals(g2)


def test_split_all_static(registry):
    g = graph_from_records([detection(class_id=1), detection(class_id=2)], registry)
    static, dynamic = split_static_dynamic(g, registry)
    assert static == {0, 1} and dynamic == set()


def test_split_partition_and_idempotence(registry):
    recs = [
        detection(class_id=1),
        detection(class_id=101, motion=(0.5,)),
        detection(class_id=101, bbox=(60, 60, 90, 90), motion=(0.5,)),
    ]
    g = graph_from_records(recs, registry)
    first = split_static_dynamic(g, registry)
    assert first == ({0}, {1, 2})
    assert split_static_dynamic(g, registry) == first


def test_partition_property_random_graphs(registry):
    rng = np.random.default_rng(0)
    for _ in range(25):
        recs = []
        for i in range(int(rng.integers(1, 12))):
            cid = int(rng.choice([1, 2, 101, 102]))
            recs.append(
                detection(
                    frame=int(rng.integers(0, 4)),
                    class_id=cid,
                    bbox=(10 + i * 5, 10, 40 + i * 5, 40),
                    motion=(0.1,) if cid >= 101 else None,
                )
            )
        g = graph_from_records(recs, registry)
        assert g.static_nodes | g.dynamic_nodes == set(g.nodes)
        assert not (g.static_nodes & g.dynamic_nodes)
        g.validate(registry)


def test_multi_video_file_requires_group_loader(tmp_path, registry):
    recs = [detection(video_id="a"), detection(video_id="b")]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    with pytest.raises(ValidationError):
        load_detections(path, registry)
    graphs = load_detection_groups(path, registry)
    assert [g.video_id for g in graphs] == ["a", "b"]


def test_registry_digest_stable_and_order_free(registry):
    import copy

    shuffled = copy.deepcopy(registry)
    shuffled.entries = dict(reversed(list(shuffled.entries.items())))
    assert registry.digest() == shuffled.digest()
