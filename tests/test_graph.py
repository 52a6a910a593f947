import json

import numpy as np
import pytest

from prism25d.errors import FormatError, ParseError, RegistryError, ValidationError
from prism25d.graph import (
    graph_from_records,
    load_corpus,
    load_detection_groups,
    save_corpus,
    split_static_dynamic,
)

from helpers import detection, write_jsonl


def test_load_counts_two_frames_three_each(tmp_path, registry):
    recs = [detection(frame=f, class_id=c, bbox=(10 + 60 * i, 10, 50 + 60 * i, 50),
                      motion=(0.5,) if c == 101 else None)
            for f in (0, 1)
            for i, c in enumerate((1, 2, 101))]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    (g,) = load_detection_groups(path, registry)
    assert len(g.nodes) == 6
    assert [len(fs.node_ids) for fs in g.frames] == [3, 3]


def test_static_class_lands_in_static_set(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=1)])
    (g,) = load_detection_groups(path, registry)
    assert g.static_nodes == {0} and not g.dynamic_nodes


def test_timestamp_normalization(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(frame=5)])
    (g,) = load_detection_groups(path, registry, max_frames=10)
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
        load_detection_groups(path, registry)
    assert exc.value.line == 2


def test_unknown_class_rejected(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=999)])
    with pytest.raises(RegistryError):
        load_detection_groups(path, registry)


def test_degenerate_bbox_rejected(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(bbox=(50, 10, 10, 50))])
    with pytest.raises(ValidationError):
        load_detection_groups(path, registry)


def test_graph_check_names_the_first_bad_line(tmp_path, registry):
    # line 2's fault (frame) is checked after line 3's (class): the lower line wins
    recs = [detection(frame=0), detection(frame=-1), detection(frame=0, class_id=999),
            detection(frame=0, depth=-2.0)]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    with pytest.raises(ValidationError, match="frame_index -1") as exc:
        load_detection_groups(path, registry)
    assert exc.value.line == 2
    path = write_jsonl(tmp_path / "d.jsonl", [recs[0], recs[2], recs[3]])
    with pytest.raises(RegistryError, match="class_id 999") as exc:
        load_detection_groups(path, registry)
    assert exc.value.line == 2


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
    # awkward floats survive the round trip exactly (at the file's one feature width)
    g.nodes[0].feature = np.array([0.1 + 0.2, 1e-17])
    g.nodes[2].feature = np.array([-0.0, 1.0])
    path = tmp_path / "g.json"
    save_corpus([g], path)
    assert "graphs" not in json.loads(path.read_text())  # one graph is written flat
    (loaded,) = load_corpus(path)
    assert loaded == g
    save_corpus([loaded], tmp_path / "g2.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_roundtrip_empty_frames_graph(tmp_path, registry):
    g = _sample_graph(registry)
    g.nodes = {}
    g.frames = []
    g.static_nodes = set()
    g.dynamic_nodes = set()
    save_corpus([g], tmp_path / "g.json")
    (loaded,) = load_corpus(tmp_path / "g.json")
    assert loaded == g


def test_wrong_version_rejected(tmp_path, registry):
    g = _sample_graph(registry)
    path = tmp_path / "g.json"
    save_corpus([g], path)
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        load_corpus(path)
    obj["version"] = 1
    obj["format"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path, registry):
    g1 = _sample_graph(registry)
    recs = [detection(video_id="w2", class_id=2)]
    g2 = graph_from_records(recs, registry)
    path = tmp_path / "c.json"
    save_corpus([g1, g2], path)
    loaded = load_corpus(path)
    assert len(loaded) == 2
    assert loaded[0] == g1 and loaded[1] == g2


def _saved_copy(graph, path):
    save_corpus([graph], path)
    (copy,) = load_corpus(path)
    return copy


def _up(values):
    """The next float up from each value: the smallest change a graph file records."""
    return np.nextafter(np.asarray(values, dtype=np.float64), np.inf)


# one edit per node field; node 1 is dynamic, so it carries a motion feature
_NODE_EDITS = {
    "node_id": lambda n: setattr(n, "node_id", n.node_id + 1),
    "class_id": lambda n: setattr(n, "class_id", n.class_id + 1),
    "feature": lambda n: setattr(n, "feature", _up(n.feature)),
    "bbox": lambda n: setattr(n, "bbox", tuple(_up(n.bbox))),
    "centroid3d": lambda n: setattr(n, "centroid3d", _up(n.centroid3d)),
    "timestamps": lambda n: setattr(n, "timestamps", _up(n.timestamps).tolist()),
    "source_frames": lambda n: setattr(n, "source_frames", [f + 1 for f in n.source_frames]),
    "motion_feature": lambda n: setattr(n, "motion_feature", _up(n.motion_feature)),
    "motion_feature-dropped": lambda n: setattr(n, "motion_feature", None),
}

# one edit per part of a graph besides its nodes' fields
_GRAPH_EDITS = {
    "video_id": lambda g: setattr(g, "video_id", g.video_id + "x"),
    "max_frames": lambda g: setattr(g, "max_frames", g.max_frames + 1),
    "frame-order": lambda g: g.frames.reverse(),
    "frame-listing-order": lambda g: g.frames[0].node_ids.reverse(),
    "partition": lambda g: (g.dynamic_nodes.discard(1), g.static_nodes.add(1)),
    "registry_digest": lambda g: setattr(g, "registry_digest", "0" * 64),
    "node-removed": lambda g: g.nodes.pop(3),
    "node-field": lambda g: _NODE_EDITS["centroid3d"](g.nodes[1]),
}


def test_saved_copies_are_equal(tmp_path, registry):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    assert copy == g and g == copy
    assert all(copy.nodes[nid] == node for nid, node in g.nodes.items())
    assert load_corpus(tmp_path / "g.json") == [g]


@pytest.mark.parametrize("field", _NODE_EDITS)
def test_node_equality_sees_each_field(tmp_path, registry, field):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    _NODE_EDITS[field](copy.nodes[1])
    assert copy.nodes[1] != g.nodes[1] and g.nodes[1] != copy.nodes[1]
    assert copy != g


@pytest.mark.parametrize("part", _GRAPH_EDITS)
def test_graph_equality_sees_each_part(tmp_path, registry, part):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    _GRAPH_EDITS[part](copy)
    assert copy != g and g != copy


def test_equality_with_another_type_is_false(registry):
    g = _sample_graph(registry)
    for other in (None, "g", 0, g.nodes, list(g.nodes.values())):
        assert (g == other) is False and (g.nodes[0] == other) is False
    assert (g == g.nodes[0]) is False and (g.nodes[0] == g) is False


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


def test_multi_video_file_loads_one_graph_per_video(tmp_path, registry):
    recs = [detection(video_id="a"), detection(video_id="b")]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    graphs = load_detection_groups(path, registry)
    assert [g.video_id for g in graphs] == ["a", "b"]


def test_registry_digest_stable_and_order_free(registry):
    import copy

    shuffled = copy.deepcopy(registry)
    shuffled.entries = dict(reversed(list(shuffled.entries.items())))
    assert registry.digest() == shuffled.digest()
