"""Core (2.5+1)D scene-graph types, detection ingestion, and serialization."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError, RegistryError, ValidationError, located
from .lift import Bbox, Intrinsics, bad_depths, default_intrinsics, degenerate_boxes, lift_centroid
from .schema import INT, NUMBER, OBJECT, STR, check, check_rows, list_of, optional, read_jsonl

STATIC = "static"
DYNAMIC = "dynamic"

GRAPH_FORMAT = "prism25d-graph"
GRAPH_VERSION = 1
DEFAULT_INTRINSICS = default_intrinsics(256.0, 256.0)


@dataclass(frozen=True)
class ClassEntry:
    name: str
    kind: str  # STATIC or DYNAMIC

    def __post_init__(self):
        if self.kind not in (STATIC, DYNAMIC):
            raise ValidationError(f"class kind must be '{STATIC}' or '{DYNAMIC}', got {self.kind!r}")


@dataclass
class ClassRegistry:
    entries: dict[int, ClassEntry]

    def kind(self, class_id: int) -> str:
        entry = self.entries.get(class_id)
        if entry is None:
            raise RegistryError(f"unknown class id {class_id}")
        return entry.kind

    def is_static(self, class_id: int) -> bool:
        return self.kind(class_id) == STATIC

    def digest(self) -> str:
        blob = json.dumps(self.to_json()["classes"], separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def to_json(self) -> dict:
        return {
            "classes": [
                {"id": cid, "name": e.name, "kind": e.kind}
                for cid, e in sorted(self.entries.items())
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "ClassRegistry":
        check(obj, {"classes": list_of(OBJECT)})
        check_rows(obj["classes"], _CLASS_FIELDS)
        entries = {}
        for item in obj["classes"]:
            cid = item["id"]
            if cid in entries:
                raise ValidationError(f"duplicate class id {cid} in registry")
            entries[cid] = ClassEntry(item["name"], item["kind"])
        return ClassRegistry(entries)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "ClassRegistry":
        return ClassRegistry.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


_CLASS_FIELDS = {"id": INT, "name": STR, "kind": STR}


@dataclass
class SceneNode:
    """One detected object occurrence (or a merged set of occurrences)."""

    node_id: int
    class_id: int
    feature: np.ndarray  # (d_o,)
    bbox: Bbox
    centroid3d: np.ndarray  # (3,)
    timestamps: list[float]  # sorted, normalized to [0, 1]
    source_frames: list[int]
    motion_feature: np.ndarray | None = None

    @property
    def combined_feature(self) -> np.ndarray:
        """Object feature, with the motion feature appended for dynamic nodes."""
        if self.motion_feature is None:
            return self.feature
        return np.concatenate([self.feature, self.motion_feature])

    def __eq__(self, other) -> bool:
        """Equal when both write the same graph-file entry."""
        return isinstance(other, SceneNode) and _node_to_json(self) == _node_to_json(other)


@dataclass
class FrameSet:
    frame_index: int
    node_ids: list[int]


@dataclass
class SceneGraph25D:
    video_id: str
    max_frames: int
    nodes: dict[int, SceneNode]
    frames: list[FrameSet]
    static_nodes: set[int] = field(default_factory=set)
    dynamic_nodes: set[int] = field(default_factory=set)
    registry_digest: str | None = None

    def validate(self, registry: ClassRegistry | None = None) -> None:
        """Check that the graph's parts agree; with a registry, also that each node's
        partition fits its class kind."""
        ids = set(self.nodes)
        if self.static_nodes | self.dynamic_nodes != ids or self.static_nodes & self.dynamic_nodes:
            raise ValidationError("static/dynamic sets do not partition the node ids")
        for nid, node in self.nodes.items():
            ts, frames = node.timestamps, node.source_frames
            if nid != node.node_id:
                raise ValidationError(f"node keyed {nid} carries id {node.node_id}")
            if (not ts or len(ts) != len(frames) or ts != sorted(ts) or frames != sorted(frames)
                    or ts[0] < 0.0 or ts[-1] > 1.0):
                raise ValidationError(f"node {nid}: timestamps and source_frames must be nonempty, "
                                      "sorted and of one length, and timestamps inside [0, 1]")
            if (node.motion_feature is None) == (nid in self.dynamic_nodes):
                raise ValidationError(f"node {nid}: dynamic nodes, and only they, carry a motion feature")
            if registry is not None and (nid in self.static_nodes) != registry.is_static(node.class_id):
                raise ValidationError(f"node {nid} is in the wrong partition for its class kind")
        nodes = list(self.nodes.values())
        boxes = np.array([n.bbox for n in nodes], dtype=np.float64).reshape(-1, 4)
        _raise_first([(degenerate_boxes(boxes), ValidationError,
                       lambda i: f"node {nodes[i].node_id}: degenerate bbox {nodes[i].bbox}")], None)
        for fs in self.frames:  # compaction's sweep needs each listing among its node's frames
            for nid in fs.node_ids:
                if nid not in ids or fs.frame_index not in self.nodes[nid].source_frames:
                    raise ValidationError(f"frame {fs.frame_index} lists node {nid}, which is missing "
                                          "or has no source frame there")

    def __eq__(self, other) -> bool:
        """Equal when both write the same graph-file body under the same registry digest."""
        return (isinstance(other, SceneGraph25D) and self.registry_digest == other.registry_digest
                and _graph_body(self) == _graph_body(other))


def split_static_dynamic(graph: SceneGraph25D, registry: ClassRegistry) -> tuple[set[int], set[int]]:
    """Partition node ids by class kind and store the partition on the graph."""
    static, dynamic = set(), set()
    for nid, node in graph.nodes.items():
        (static if registry.is_static(node.class_id) else dynamic).add(nid)
    graph.static_nodes = static
    graph.dynamic_nodes = dynamic
    return static, dynamic


def _raise_first(faults, lines: list[int] | None) -> None:
    """Raise for the first bad record; `faults` holds (bad-record mask, error class,
    message for record i) in the order a record's own faults are reported."""
    hits = [(int(np.argmax(bad)), k) for k, (bad, _, _) in enumerate(faults) if np.any(bad)]
    if hits:
        i, k = min(hits)
        _, error, message = faults[k]
        raise error(message(i), line=None if lines is None else lines[i])


def graph_from_records(
    records: list[dict],
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
    lines: list[int] | None = None,
) -> SceneGraph25D:
    """Build a single-video graph from detection records (already-parsed JSONL lines).

    Node ids are assigned sequentially in record order. `max_frames` is the
    dataset-wide frame count used for temporal normalization; when omitted it
    defaults to this video's frame span. `lines` gives each record's line in
    its file, so that an error names the first bad line.
    """
    if not records:
        raise ValidationError("no detection records given")
    video_ids = {str(r["video_id"]) for r in records}
    if len(video_ids) > 1:
        raise ValidationError(f"records span multiple videos {sorted(video_ids)}; split them first")
    frames = [int(r["frame_index"]) for r in records]
    if max_frames is None:
        max_frames = max(frames) + 1
    if max_frames <= 0:
        raise ValidationError(f"max_frames must be positive, got {max_frames}")

    class_ids = [int(r["class_id"]) for r in records]
    kinds = [registry.entries[c].kind if c in registry.entries else None for c in class_ids]
    bboxes = [tuple(float(v) for v in r["bbox"]) for r in records]
    motions = [r.get("motion_feature") for r in records]
    _raise_first([  # box shapes first: the checks below take the boxes as one array
        ([len(b) != 4 for b in bboxes], ValidationError,
         lambda i: f"bbox must have 4 coordinates, got {len(bboxes[i])}"),
    ], lines)
    boxes = np.array(bboxes, dtype=np.float64).reshape(-1, 4)
    depths = np.array([float(r["depth"]) for r in records])
    _raise_first([
        ([k is None for k in kinds], RegistryError, lambda i: f"unknown class_id {class_ids[i]}"),
        (degenerate_boxes(boxes), ValidationError,
         lambda i: f"degenerate bbox {bboxes[i]}: requires x1 < x2 and y1 < y2"),
        (bad_depths(depths), ValidationError,
         lambda i: f"depth must be positive and finite, got {depths[i]}"),
        ([k == DYNAMIC and m is None for k, m in zip(kinds, motions)], ValidationError,
         lambda i: f"dynamic detection (class {class_ids[i]}) lacks motion_feature"),
        ([k == STATIC and m is not None for k, m in zip(kinds, motions)], ValidationError,
         lambda i: f"static detection (class {class_ids[i]}) carries motion_feature"),
        ([not 0 <= f < max_frames for f in frames], ValidationError,
         lambda i: f"frame_index {frames[i]} outside [0, {max_frames})"),
    ], lines)
    centroids = lift_centroid(boxes, depths, intrinsics)
    _raise_first([(~np.isfinite(centroids).all(axis=1), ValidationError,
                   lambda i: f"lifted centroid {centroids[i].tolist()} is not finite")], lines)

    nodes: dict[int, SceneNode] = {}
    by_frame: dict[int, list[int]] = {}
    for node_id, (rec, frame, motion) in enumerate(zip(records, frames, motions)):
        nodes[node_id] = SceneNode(
            node_id=node_id,
            class_id=class_ids[node_id],
            feature=np.asarray(rec["feature"], dtype=np.float64),
            bbox=bboxes[node_id],
            centroid3d=centroids[node_id],
            timestamps=[frame / max_frames],
            source_frames=[frame],
            motion_feature=None if motion is None else np.asarray(motion, dtype=np.float64),
        )
        by_frame.setdefault(frame, []).append(node_id)

    graph = SceneGraph25D(
        video_id=video_ids.pop(),
        max_frames=max_frames,
        nodes=nodes,
        frames=[FrameSet(f, by_frame[f]) for f in sorted(by_frame)],
        registry_digest=registry.digest(),
    )
    split_static_dynamic(graph, registry)
    return graph


_FEATURES = {"feature": list_of(NUMBER), "motion_feature": optional(list_of(NUMBER))}
_DETECTION_FIELDS = {
    "video_id": STR, "frame_index": INT, "class_id": INT, "bbox": list_of(NUMBER), "depth": NUMBER,
    **_FEATURES,
}


def _check_widths(records: list[dict], widths: dict[str, int], lines: list[int] | None = None) -> None:
    """One feature width per key and file: `widths` holds the width of each key's first use."""
    for key in _FEATURES:
        sizes = [len(r[key]) for r in records if r.get(key) is not None]
        if sizes and set(sizes) != {widths.setdefault(key, sizes[0])}:
            i = next(i for i, r in enumerate(records)
                     if r.get(key) is not None and len(r[key]) != widths[key])
            raise ParseError(f"{key} has {len(records[i][key])} values, not {widths[key]}",
                             line=None if lines is None else lines[i])


def load_detection_groups(
    path: str | Path,
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
) -> list[SceneGraph25D]:
    """Load a detection JSONL file into one graph per video (first-appearance order)."""
    lines, records = read_jsonl(path)
    check_rows(records, _DETECTION_FIELDS, lines)
    _check_widths(records, {}, lines)
    groups: dict[str, tuple[list[dict], list[int]]] = {}
    for lineno, rec in zip(lines, records):
        recs, video_lines = groups.setdefault(rec["video_id"], ([], []))
        recs.append(rec)
        video_lines.append(lineno)
    if not groups:
        raise ValidationError(f"no detections in {path}")
    if max_frames is None:
        max_frames = max(int(r["frame_index"]) for recs, _ in groups.values() for r in recs) + 1
    return [
        graph_from_records(recs, registry, max_frames, intrinsics, video_lines)
        for recs, video_lines in groups.values()
    ]


def _node_to_json(node: SceneNode) -> dict:
    return {
        "node_id": node.node_id,
        "class_id": node.class_id,
        "feature": [float(v) for v in node.feature],
        "motion_feature": None
        if node.motion_feature is None
        else [float(v) for v in node.motion_feature],
        "bbox": [float(v) for v in node.bbox],
        "centroid3d": [float(v) for v in node.centroid3d],
        "timestamps": [float(t) for t in node.timestamps],
        "source_frames": [int(f) for f in node.source_frames],
    }


def _node_from_json(obj: dict) -> SceneNode:
    motion = obj.get("motion_feature")
    return SceneNode(
        node_id=obj["node_id"],
        class_id=obj["class_id"],
        feature=np.asarray(obj["feature"], dtype=np.float64),
        bbox=tuple(obj["bbox"]),
        centroid3d=np.asarray(obj["centroid3d"], dtype=np.float64),
        timestamps=obj["timestamps"],
        source_frames=obj["source_frames"],
        motion_feature=None if motion is None else np.asarray(motion, dtype=np.float64),
    )


def _graph_body(graph: SceneGraph25D) -> dict:
    return {
        "video_id": graph.video_id,
        "max_frames": graph.max_frames,
        "nodes": [_node_to_json(graph.nodes[nid]) for nid in sorted(graph.nodes)],
        "frames": [{"frame_index": fs.frame_index, "node_ids": list(fs.node_ids)} for fs in graph.frames],
        "static_nodes": sorted(graph.static_nodes),
        "dynamic_nodes": sorted(graph.dynamic_nodes),
    }


_NODE_FIELDS = {
    "node_id": INT, "class_id": INT, **_FEATURES, "bbox": list_of(NUMBER, 4),
    "centroid3d": list_of(NUMBER, 3), "timestamps": list_of(NUMBER), "source_frames": list_of(INT),
}
_FRAME_FIELDS = {"frame_index": INT, "node_ids": list_of(INT)}
_GRAPH_FIELDS = {
    "video_id": STR, "max_frames": INT, "nodes": list_of(OBJECT), "frames": list_of(OBJECT),
    "static_nodes": list_of(INT), "dynamic_nodes": list_of(INT),
}
_CORPUS_FIELDS = {"registry_digest": optional(STR), "graphs": list_of(OBJECT)}


def _graph_from_body(obj: dict, digest: str | None, widths: dict[str, int]) -> SceneGraph25D:
    check(obj, _GRAPH_FIELDS)
    with located(f"video {obj['video_id']!r}"):
        check_rows(obj["nodes"], _NODE_FIELDS)
        _check_widths(obj["nodes"], widths)
        check_rows(obj["frames"], _FRAME_FIELDS)
        nodes = {n["node_id"]: _node_from_json(n) for n in obj["nodes"]}
        if len(nodes) != len(obj["nodes"]):
            raise ValidationError("repeats a node id")
        graph = SceneGraph25D(
            video_id=obj["video_id"],
            max_frames=obj["max_frames"],
            nodes=nodes,
            frames=[FrameSet(f["frame_index"], f["node_ids"]) for f in obj["frames"]],
            static_nodes=set(obj["static_nodes"]),
            dynamic_nodes=set(obj["dynamic_nodes"]),
            registry_digest=digest,
        )
        graph.validate()
    return graph


def _check_header(obj: dict, path: str | Path) -> None:
    if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
        raise FormatError(f"{path}: not a {GRAPH_FORMAT} file")
    if obj.get("version") != GRAPH_VERSION:
        raise FormatError(f"{path}: unsupported version {obj.get('version')!r}")


def save_corpus(graphs: list[SceneGraph25D], path: str | Path) -> None:
    """Write one graph's body at the top level, or several under "graphs"; write the file
    only once all of it is known to be valid JSON: no NaN or infinity."""
    digests = {g.registry_digest for g in graphs}
    body = _graph_body(graphs[0]) if len(graphs) == 1 else {"graphs": [_graph_body(g) for g in graphs]}
    obj = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "registry_digest": digests.pop() if len(digests) == 1 else None,
        **body,
    }
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"graph holds a non-finite number: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_corpus(path: str | Path) -> list[SceneGraph25D]:
    """Load a graph file holding either one video or a multi-video corpus.

    A missing or mistyped field is a ParseError, and a graph whose parts
    disagree (see `SceneGraph25D.validate`) is a ValidationError.
    """
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_header(obj, path)
    if "graphs" not in obj:
        obj = {"registry_digest": obj.get("registry_digest"), "graphs": [obj]}
    check(obj, _CORPUS_FIELDS)
    widths: dict[str, int] = {}  # feature widths of the file's first node with each key
    return [_graph_from_body(g, obj["registry_digest"], widths) for g in obj["graphs"]]
