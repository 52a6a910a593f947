import io
import json
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prism25d import schema
from prism25d.errors import ParseError, ValidationError
from prism25d.attention import build_bundles, kernel_softmax_levels
from prism25d.compact import MatchParams, compact
from prism25d.graph import STATIC, _graph_body, graphs_from_records, load_corpus, load_detection_groups, save_corpus
from prism25d.qa import load_qa
from prism25d.register import register_frames
from prism25d import synthworld as sw

from helpers import (
    detection, flat_times, listings, node, oracle_graph_text, table, traced_peak, write_jsonl,
)


def test_load_counts_two_frames_three_each(tmp_path, registry):
    recs = [detection(frame=f, class_id=c, bbox=(10 + 60 * i, 10, 50 + 60 * i, 50),
                      motion=(0.5,) if c == 101 else None)
            for f in (0, 1)
            for i, c in enumerate((1, 2, 101))]
    path = write_jsonl(tmp_path / "d.jsonl", recs)
    (g,) = load_detection_groups(path, registry)
    assert len(g.nodes) == 6
    assert [len(ids) for _, ids in listings(g)] == [3, 3]


def test_static_class_lands_in_static_set(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=1)])
    (g,) = load_detection_groups(path, registry)
    assert g.nodes.tolist() == [0] and g.static.tolist() == [True]


def _bundle_has_times(g, times):
    """Whether the kernel bundle of `g` is, bit for bit, the kernel over nodes observed at `times`."""
    levels = ((1.0, 0.1),)
    got = build_bundles({"v": g}, levels)["v"].smax[0].data
    want = kernel_softmax_levels(g.centroids, *flat_times(times), levels)[0].data
    return np.array_equal(got, want)


def test_timestamp_normalization(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(frame=0), detection(frame=5)])
    (g,) = load_detection_groups(path, registry, max_frames=10)
    assert _bundle_has_times(g, [[0.0], [0.5]]) and not _bundle_has_times(g, [[0.0], [0.4]])


def test_last_frame_timestamp_below_one(registry):
    n = 7
    recs = [detection(frame=0), detection(frame=n - 1)]
    g = graphs_from_records(recs, registry, max_frames=n)[0]
    assert _bundle_has_times(g, [[0.0], [(n - 1) / n]]) and (n - 1) / n < 1.0


def test_malformed_line_reports_line_number(tmp_path, registry):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(detection()) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_detection_groups(path, registry)
    assert exc.value.line == 2


def test_unknown_class_rejected(tmp_path, registry):
    path = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=999)])
    with pytest.raises(ValidationError, match="unknown class_id 999"):
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
    with pytest.raises(ValidationError, match="class_id 999") as exc:
        load_detection_groups(path, registry)
    assert exc.value.line == 2


def _lines(items):
    """JSONL text: a str item is written as it is, anything else as JSON."""
    return "".join((item if isinstance(item, str) else json.dumps(item)) + "\n" for item in items)


def _qa(gt=0):
    return {"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": gt}


def _without(rec, key):
    return {k: v for k, v in rec.items() if k != key}


@pytest.mark.parametrize("items, error, message", [
    # video b's fault comes before video a's, though a appears first
    ([detection(video_id="a"), detection(video_id="b", class_id=999), detection(video_id="a", depth=-2.0)],
     ValidationError, "class_id 999"),
    # a centroid overflow is reported before a class fault on a later line
    ([detection(), detection(bbox=(0.0, 0.0, 1.0, 1.0), depth=1e308), detection(class_id=999)],
     ValidationError, "lifted centroid"),
    # a box of 3 values is a parse error, as any mistyped field
    ([detection(), detection(frame=1, bbox=(10.0, 10.0, 50.0)), detection(class_id=999)],
     ParseError, "bbox must be a list of 4 items"),
    # a missing field before a line that is not JSON
    ([detection(), _without(detection(), "depth"), detection(), '{"video_id": "v", "fra'],
     ParseError, "missing field 'depth'"),
    # a feature width before a mistyped field on a later line
    ([detection(), detection(feature=(1.0, 0.0, 0.0)), detection(), detection(class_id="x")],
     ParseError, "feature has 3 values, not 2"),
    # a QA line's own fault before a mistyped field and a line that is not JSON
    ([_qa(), _qa(gt=5), _qa(gt="0"), "{broken"], ParseError, "gt index 5 outside candidate range"),
], ids=["interleaved-videos", "centroid-overflow", "three-value-bbox", "missing-field-before-bad-json",
        "width-before-mistyped-field", "qa-instance-before-mistyped-field-and-bad-json"])
def test_first_bad_line_in_the_file_is_reported(tmp_path, registry, items, error, message):
    path = tmp_path / "d.jsonl"
    path.write_text(_lines(items), encoding="utf-8")
    load = load_qa if "question" in items[0] else lambda p: load_detection_groups(p, registry)
    with pytest.raises(error, match=message) as exc, np.errstate(over="ignore"):
        load(path)
    assert exc.value.line == 2


def _video(video_id, frames):
    """A video's detection records: one static and one dynamic object per frame."""
    return [detection(video_id=video_id, frame=f, class_id=c, bbox=(10 + 60 * k + f, 10, 50 + 60 * k + f, 50),
                      motion=(0.5, float(f)) if c == 101 else None)
            for f in range(frames) for k, c in enumerate((1, 101))]


def test_videos_spanning_blocks_load_as_one_block(tmp_path, registry, monkeypatch):
    monkeypatch.setattr(schema, "_BLOCK_LINES", 3)
    recs = _video("a", 3) + _video("b", 2) + _video("a", 1)  # 14 lines, "a" in the first and last block
    items = recs[:3] + ["", "  "] + recs[3:]  # blank lines after the first block's last line
    path = tmp_path / "d.jsonl"
    path.write_text(_lines(items), encoding="utf-8")
    graphs = load_detection_groups(path, registry)
    assert [g.video_id for g in graphs] == ["a", "b"] and len(graphs[0].nodes) == 8
    assert graphs == graphs_from_records(recs, registry)


def test_a_line_ends_at_a_line_feed(tmp_path, registry):
    """CRLF files read as LF files, blank lines included; a lone carriage return ends no line."""
    text = _lines(_video("a", 1) + ["", " \t"] + _video("a", 2)[2:])
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        (tmp_path / name).write_bytes(text.replace("\n", newline).encode())
    assert load_detection_groups(tmp_path / "crlf", registry) == load_detection_groups(tmp_path / "lf", registry)
    with pytest.raises(ParseError, match="^line 1: invalid JSON: Extra data$"):
        load_detection_groups(tmp_path / "cr", registry)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_ODD_LINES = {
    "two-values": ["{} {}", "1, 2", '"a" "b"', "[] 1"],
    "deep": ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a": ' * 50_000],
    "long-int": ["1" * 5000, "-" + "9" * 5000, "[" + "1" * 5000 + "]"],
    "constant": ["NaN", "[NaN, Infinity, -Infinity]", "nan", "Infinity1"],
    "blank": ["", " \t\r", "\x0b", "\xa0"],
}


@st.composite
def _jsonl_line(draw) -> bytes:
    """One line, without its line feed: a JSON value padded with JSON whitespace (most
    often), behind a prefix that json.loads does not skip, or cut short; an `_ODD_LINES`
    line; or bytes that are not UTF-8."""
    text = json.dumps(draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["padded"] * 4 + ["prefixed", "cut", "not-utf-8", *_ODD_LINES]))
    if kind == "padded":
        pad = st.text(" \t\r", max_size=3)
        text = draw(pad) + text + draw(pad)
    elif kind == "prefixed":
        text = draw(st.sampled_from(["\x0b", "\x0c", "\ufeff", " \ufeff"])) + text
    elif kind == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind in _ODD_LINES:
        text = draw(st.sampled_from(_ODD_LINES[kind]))
    data = text.encode("utf-8")
    if kind == "not-utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])) + data[at:]
    return data


def _read_one_at_a_time(data: bytes):
    """(line, value) of each non-blank line by `parse_json(line, lineno)`, then the first
    error's message and line, or None."""
    read = []
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        if line.strip():
            try:
                read.append((lineno, schema.parse_json(line, lineno)))
            except ParseError as exc:
                return read, (str(exc), exc.line)
    return read, None


def _read_by_blocks(path):
    """What `jsonl_blocks` gives, in `_read_one_at_a_time`'s form."""
    read = []
    try:
        for lines, values in schema.jsonl_blocks(path):
            read += zip(lines, values)
    except ParseError as exc:
        return read, (str(exc), exc.line)
    return read, None


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_jsonl_line(), min_size=1, max_size=8), end=st.sampled_from([b"", b"\n", b"\r\n"]))
@example(lines=[b"{}", b"[" * 100_000], end=b"\n")
@example(lines=[b" \t1\r", b"", b"1" * 5000], end=b"")
@example(lines=[b"\x0c{}"], end=b"\n")
@example(lines=[b"\xef\xbb\xbf{}"], end=b"\n")
@example(lines=[b"NaN", b"{} {}"], end=b"\r\n")
def test_block_reader_reads_each_line_as_parse_json_does(lines, end):
    data = b"\n".join(lines) + end
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(schema, "_BLOCK_LINES", 2):
        path = Path(tmp) / "d.jsonl"
        path.write_bytes(data)
        got, fault = _read_by_blocks(path)
    want, want_fault = _read_one_at_a_time(data)
    assert fault == want_fault
    # json.dumps tells 1, 1.0 and true apart and writes NaN, which equals nothing
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("bad, error, message", [
    ("{broken", ParseError, "invalid JSON"),
    (detection(depth="2"), ParseError, "depth must be a finite number"),
    (detection(feature=(1.0, 0.0, 0.0)), ParseError, "feature has 3 values, not 2"),
    (detection(class_id=999), ValidationError, "class_id 999"),
    (detection(frame=-1), ValidationError, "frame_index -1"),
], ids=["bad-json", "mistyped-field", "feature-width", "unknown-class", "frame-range"])
def test_a_bad_line_in_a_later_block_is_named_by_its_line(tmp_path, registry, monkeypatch, bad, error,
                                                          message):
    monkeypatch.setattr(schema, "_BLOCK_LINES", 3)
    # two full blocks, a blank line, then the bad item on line 8, first in the third block
    items = _video("a", 3) + [""] + [bad] + [detection(class_id=998)]
    path = tmp_path / "d.jsonl"
    path.write_text(_lines(items), encoding="utf-8")
    with pytest.raises(error, match=message) as exc:
        load_detection_groups(path, registry)
    assert exc.value.line == 8


def _corpus_peak(path, lines, registry):
    """The tracemalloc peak of loading a `lines`-line detection file of 8-line videos, with the
    benchmark corpus's feature widths: 16, and 8 for motion on every fourth line."""
    features = np.eye(16).tolist()
    write_jsonl(path, (detection(video_id=f"w{i // 8}", frame=i % 8 // 4, class_id=101 if k == 3 else 1,
                                 bbox=(10.0 + k * 60, 10.0, 50.0 + k * 60, 50.0), feature=features[k],
                                 motion=[0.25] * 8 if k == 3 else None)
                       for i, k in ((i, i % 4) for i in range(lines))))
    return traced_peak(lambda: load_detection_groups(path, registry))


def test_reader_memory_per_line(tmp_path, registry):
    # a line of this corpus is about 230 bytes on disk and about 1,600 parsed into JSON objects.
    # Read 250 lines at a time, the peak is set by assembling the videos, which holds about three
    # copies of the columns (about 740 bytes per line), not by a block's parsed lines; so half
    # the lines take about half the memory
    small, large = (_corpus_peak(tmp_path / f"d{n}.jsonl", n, registry) for n in (3000, 6000))
    assert (large - small) / 3000 < 1000
    assert small < 0.75 * large


def test_motion_feature_kind_mismatch_rejected(registry):
    with pytest.raises(ValidationError):
        graphs_from_records([detection(class_id=1, motion=(0.1,))], registry)[0]
    with pytest.raises(ValidationError):
        graphs_from_records([detection(class_id=101, motion=None)], registry)[0]


def test_combined_feature_lengths(registry):
    recs = [
        detection(frame=0, class_id=1, feature=np.arange(16.0).tolist()),
        detection(frame=0, class_id=101, bbox=(60, 10, 90, 40), feature=np.arange(16.0).tolist(),
                  motion=np.arange(8.0).tolist()),
    ]
    g = graphs_from_records(recs, registry)[0]
    bundle = build_bundles({"v": g}, ((1.0, 1.0),))["v"]  # object, then motion feature, per column
    assert bundle.static_cols.shape == (16, 1) and bundle.dynamic_cols.shape == (24, 1)
    assert np.array_equal(bundle.dynamic_cols[16:, 0], np.arange(8.0))


def test_non_finite_depth_rejected_by_lift(registry):
    # the in-memory ingest checks its records as a detection file's lines are
    for depth in (float("nan"), float("inf")):
        with pytest.raises(ParseError, match="depth must be a finite number"):
            graphs_from_records([detection(depth=depth)], registry)[0]


def test_and_lift_applied_on_load(registry):
    # bbox centered on the principal point lifts onto the optical axis
    g = graphs_from_records(
        [detection(bbox=(118.0, 118.0, 138.0, 138.0), depth=2.0)], registry
    )[0]
    assert np.allclose(g.centroids[0], [0.0, 0.0, 2.0])


def _sample_graph(registry):
    recs = [
        detection(frame=0, class_id=1, bbox=(10, 10, 50, 50)),
        detection(frame=0, class_id=101, bbox=(60, 10, 90, 40), motion=(0.5, 0.25)),
        detection(frame=1, class_id=2, bbox=(12, 11, 52, 49)),
        detection(frame=1, class_id=102, bbox=(61, 12, 91, 41), motion=(0.0, 1.0)),
    ]
    return graphs_from_records(recs, registry)[0]


def test_roundtrip_bit_exact(tmp_path, registry):
    g = _sample_graph(registry)
    # awkward floats survive the round trip exactly (at the file's one feature width)
    g.features[0] = [0.1 + 0.2, 1e-17]
    g.features[2] = [-0.0, 1.0]
    path = tmp_path / "g.json"
    save_corpus([g], path)
    assert "graphs" not in json.loads(path.read_text())  # one graph is written flat
    (loaded,) = load_corpus(path)
    assert loaded == g
    save_corpus([loaded], tmp_path / "g2.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_roundtrip_empty_frames_graph(tmp_path, registry):
    sample = _sample_graph(registry)
    g = table([], video_id=sample.video_id, max_frames=sample.max_frames, registry_digest=sample.registry_digest)
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
    with pytest.raises(ValidationError, match="unsupported version 99"):
        load_corpus(path)
    obj["version"] = 2
    obj["format"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="not a prism25d-graph file"):
        load_corpus(path)


def test_corpus_roundtrip(tmp_path, registry):
    g1 = _sample_graph(registry)
    recs = [detection(video_id="w2", class_id=2)]
    g2 = graphs_from_records(recs, registry)[0]
    path = tmp_path / "c.json"
    save_corpus([g1, g2], path)
    loaded = load_corpus(path)
    assert len(loaded) == 2
    assert loaded[0] == g1 and loaded[1] == g2


def _world_graphs(video_id, noise=sw.NoiseSpec()):
    """The graphs of one synthetic world's detections: 4 static objects and 2 dynamic ones, seen
    by a translating camera."""
    world = sw.build_world(sw.WorldSpec(seed=5, video_id=video_id, n_frames=6, n_static=4, n_dynamic=2,
                                        camera=sw.CameraSpec(kind="translating", velocity=(0.02, 0.0, 0.0)),
                                        noise=noise))
    return graphs_from_records(sw.world_detections(world), sw.default_registry())


def _jittered(video_id):
    return _world_graphs(video_id, sw.NoiseSpec(bbox_px=1.0, depth=0.03))


def _big_ids():
    """A graph whose node and class ids do not fit int64, so its id columns are object arrays."""
    big = 2**64
    nodes = [SimpleNamespace(node_id=big + k, class_id=2**70 + k, feature=[0.5, float(k)], bbox=(0, 0, 10, 10 + k),
                             centroid3d=np.array([k, 0.0, 1.0]), source_frames=[k],
                             motion_feature=[0.25] if k == 1 else None)
             for k in range(3)]
    return table(nodes, dynamic={big + 1}, max_frames=4)


# graph lists for the writer: each a function of the registry fixture
_CORPORA = {
    "no-graphs": lambda reg: [],
    "one-graph": lambda reg: [_sample_graph(reg)],
    "several-graphs": lambda reg: [replace(_sample_graph(reg), video_id=v) for v in "abc"]
    + graphs_from_records([detection(video_id="d", class_id=2)], reg),
    "no-registry-digest": lambda reg: [replace(_sample_graph(reg), registry_digest=None)],
    "no-nodes": lambda reg: [table([], video_id="e")],
    "no-dynamic-nodes": lambda reg: graphs_from_records(
        [detection(class_id=1), detection(frame=1, class_id=2, bbox=(60, 10, 90, 40))], reg),
    "ids-beyond-int64": lambda reg: [_big_ids()],
    "registered": lambda reg: [register_frames(g) for g in _jittered("r")],
    "compacted": lambda reg: [compact(register_frames(g), MatchParams()) for g in _jittered("c")],
    "jittered": lambda reg: _jittered("j1") + _jittered("j2"),
}


@pytest.mark.parametrize("corpus", _CORPORA)
def test_save_corpus_writes_the_whole_file_writers_bytes(tmp_path, registry, corpus):
    graphs = _CORPORA[corpus](registry)
    save_corpus(graphs, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_bytes() == oracle_graph_text(graphs).encode("utf-8")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, column", [("feature", "features"), ("motion_feature", "motions"),
                                           ("bbox", "boxes"), ("centroid3d", "centroids")])
def test_a_non_finite_number_is_refused_before_the_first_byte(tmp_path, registry, field, column, value):
    graphs = [replace(_sample_graph(registry), video_id=v) for v in "abc"]
    getattr(graphs[-1], column)[-1, -1] = value
    path = tmp_path / "g.json"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(ValidationError, match=f"^video 'c': graph holds a non-finite number in {field}$"):
        save_corpus(graphs, path)
    assert path.read_bytes() == b"earlier bytes\n"


def test_save_corpus_memory_per_graph(tmp_path):
    # written whole, every graph adds its body's dicts and text (about 9 times the text alone)
    # to the peak, and streamed, none of it
    (g,) = _world_graphs("m")
    graphs = [replace(g, video_id=f"m{i}") for i in range(48)]
    save_corpus(graphs[:1], tmp_path / "warm.json")
    small, large = (traced_peak(lambda: save_corpus(graphs[:n], tmp_path / f"g{n}.json")) for n in (4, 48))
    assert large - small < len(json.dumps(_graph_body(g)))


def test_save_corpus_rejects_mixed_registry_digests(tmp_path, registry):
    g1 = _sample_graph(registry)
    g2 = graphs_from_records([detection(video_id="w2", class_id=2)], registry)[0]
    g2.registry_digest = "0" * 64
    path = tmp_path / "c.json"
    with pytest.raises(ValidationError) as exc:
        save_corpus([g1, g2], path)
    assert g1.registry_digest in str(exc.value) and g2.registry_digest in str(exc.value)
    assert not path.exists()


def _saved_copy(graph, path):
    save_corpus([graph], path)
    (copy,) = load_corpus(path)
    return copy


def _up(values):
    """The next float up from each value: the smallest change a graph file records."""
    return np.nextafter(np.asarray(values, dtype=np.float64), np.inf)


def _obs(g, row):
    """The slice of the observation columns that holds row `row`'s."""
    return slice(g.obs_start[row], g.obs_start[row + 1])


def _without(g, nid):
    """A copy of the graph without node `nid`."""
    dynamic = set(g.nodes[~g.static].tolist())
    return table([node(g, i) for i in g.nodes.tolist() if i != nid], dynamic=dynamic,
                 frames=[(f, [i for i in ids if i != nid]) for f, ids in listings(g)],
                 video_id=g.video_id, max_frames=g.max_frames, registry_digest=g.registry_digest)


def _set(g, column, key, value):
    getattr(g, column)[key] = value


def _reverse_listings(g):
    g.listed_frames, g.listed_rows = g.listed_frames[::-1], g.listed_rows[::-1]


def _drop_motion(g):
    """Node 1 written with a null motion feature: a static row without a motion row."""
    g.static[1] = True
    g.motions = g.motions[1:]


# one edit per node field, each of row 1: node 1, which is dynamic and carries a motion feature
_NODE_EDITS = {
    "node_id": lambda g: _set(g, "nodes", 1, 2),
    "class_id": lambda g: _set(g, "class_ids", 1, g.class_ids[1] + 1),
    "feature": lambda g: _set(g, "features", 1, _up(g.features[1])),
    "bbox": lambda g: _set(g, "boxes", 1, _up(g.boxes[1])),
    "centroid3d": lambda g: _set(g, "centroids", 1, _up(g.centroids[1])),
    "source_frames": lambda g: _set(g, "obs_frames", _obs(g, 1), g.obs_frames[_obs(g, 1)] + 1),
    "motion_feature": lambda g: _set(g, "motions", 0, _up(g.motions[0])),
    "motion_feature-dropped": _drop_motion,
}

# one edit per part of a graph besides its nodes' fields; an edit returns a new graph or None
_GRAPH_EDITS = {
    "video_id": lambda g: setattr(g, "video_id", g.video_id + "x"),
    "max_frames": lambda g: setattr(g, "max_frames", g.max_frames + 1),
    "frame-order": _reverse_listings,
    "frame-listing-order": lambda g: _set(g, "listed_rows", slice(0, 2), g.listed_rows[1::-1]),
    "partition": lambda g: _set(g, "static", 1, True),
    "registry_digest": lambda g: setattr(g, "registry_digest", "0" * 64),
    "node-removed": lambda g: _without(g, 3),
    "node-field": _NODE_EDITS["centroid3d"],
}


def test_saved_copies_are_equal(tmp_path, registry):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    assert copy == g and g == copy
    assert all(np.array_equal(getattr(copy, f.name), getattr(g, f.name)) for f in fields(g))
    assert load_corpus(tmp_path / "g.json") == [g]


@pytest.mark.parametrize("field", _NODE_EDITS)
def test_node_equality_sees_each_field(tmp_path, registry, field):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    _NODE_EDITS[field](copy)
    assert copy != g and g != copy


@pytest.mark.parametrize("part", _GRAPH_EDITS)
def test_graph_equality_sees_each_part(tmp_path, registry, part):
    g = _sample_graph(registry)
    copy = _saved_copy(g, tmp_path / "g.json")
    copy = _GRAPH_EDITS[part](copy) or copy
    assert copy != g and g != copy


def test_equality_with_another_type_is_false(registry):
    g = _sample_graph(registry)
    for other in (None, "g", 0, g.nodes, g.features, vars(g)):
        assert (g == other) is False


def test_split_all_static(registry):
    g = graphs_from_records([detection(class_id=1), detection(class_id=2)], registry)[0]
    assert g.static.tolist() == [True, True] and g.motions.shape == (0, 0)


def test_split_partition_and_idempotence(tmp_path, registry):
    recs = [
        detection(class_id=1),
        detection(class_id=101, motion=(0.5,)),
        detection(class_id=101, bbox=(60, 60, 90, 90), motion=(0.5,)),
    ]
    g = graphs_from_records(recs, registry)[0]
    assert g.static.tolist() == [True, False, False] and g.motions.tolist() == [[0.5], [0.5]]
    copy = _saved_copy(g, tmp_path / "g.json")
    assert copy.static.tolist() == g.static.tolist()
    copy.check_nodes()
    copy.check_listings()


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
        g = graphs_from_records(recs, registry)[0]
        assert g.static.tolist() == [registry.entries[c].kind == STATIC for c in g.class_ids.tolist()]
        assert len(g.motions) == np.count_nonzero(~g.static)
        g.check_nodes()
        g.check_listings()


def test_no_records_give_no_graphs_but_an_empty_file_is_an_error(tmp_path, registry):
    assert graphs_from_records([], registry) == []
    with pytest.raises(ValidationError, match="no detections in"):
        load_detection_groups(write_jsonl(tmp_path / "d.jsonl", []), registry)


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
