"""Core (2.5+1)D scene-graph types, detection ingestion, and serialization."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError, RegistryError, ValidationError
from .lift import (
    Bbox,
    Intrinsics,
    bad_depths,
    default_intrinsics,
    degenerate_boxes,
    lift_centroid,
    validate_bbox,
)

STATIC = "static"
DYNAMIC = "dynamic"

GRAPH_FORMAT = "prism25d-graph"
GRAPH_VERSION = 1


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
        canon = [
            {"id": cid, "name": e.name, "kind": e.kind}
            for cid, e in sorted(self.entries.items())
        ]
        blob = json.dumps(canon, separators=(",", ":")).encode("utf-8")
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
        classes = obj.get("classes") if isinstance(obj, dict) else None
        if not isinstance(classes, list):
            raise ParseError("registry needs a 'classes' list")
        entries = {}
        for item in classes:
            if not (isinstance(item, dict) and {"id", "name", "kind"} <= item.keys()
                    and _is_int(item["id"])):
                raise ParseError(f"registry class needs an integer id, name and kind: {item!r}")
            cid = item["id"]
            if cid in entries:
                raise ValidationError(f"duplicate class id {cid} in registry")
            entries[cid] = ClassEntry(str(item["name"]), str(item["kind"]))
        return ClassRegistry(entries)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "ClassRegistry":
        return ClassRegistry.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


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

    def validate(self, registry: ClassRegistry) -> None:
        validate_bbox(self.bbox)
        ts = self.timestamps
        if not ts:
            raise ValidationError(f"node {self.node_id}: empty timestamp list")
        if len(ts) != len(self.source_frames):
            raise ValidationError(f"node {self.node_id}: timestamps and source_frames differ in length")
        if any(t < 0.0 or t > 1.0 for t in ts):
            raise ValidationError(f"node {self.node_id}: timestamps outside [0, 1]")
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ValidationError(f"node {self.node_id}: timestamps not sorted")
        dynamic = registry.kind(self.class_id) == DYNAMIC
        if dynamic and self.motion_feature is None:
            raise ValidationError(f"node {self.node_id}: dynamic node lacks a motion feature")
        if not dynamic and self.motion_feature is not None:
            raise ValidationError(f"node {self.node_id}: static node carries a motion feature")

    def equals(self, other: "SceneNode") -> bool:
        if (
            self.node_id != other.node_id
            or self.class_id != other.class_id
            or tuple(self.bbox) != tuple(other.bbox)
            or self.timestamps != other.timestamps
            or self.source_frames != other.source_frames
        ):
            return False
        if not np.array_equal(self.feature, other.feature):
            return False
        if not np.array_equal(self.centroid3d, other.centroid3d):
            return False
        if (self.motion_feature is None) != (other.motion_feature is None):
            return False
        if self.motion_feature is not None and not np.array_equal(
            self.motion_feature, other.motion_feature
        ):
            return False
        return True


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

    def node_count(self) -> int:
        return len(self.nodes)

    def validate(self, registry: ClassRegistry) -> None:
        ids = set(self.nodes)
        if self.static_nodes | self.dynamic_nodes != ids or self.static_nodes & self.dynamic_nodes:
            raise ValidationError("static/dynamic sets do not partition the node ids")
        for nid, node in self.nodes.items():
            if nid != node.node_id:
                raise ValidationError(f"node keyed {nid} carries id {node.node_id}")
            node.validate(registry)
            in_static = nid in self.static_nodes
            if in_static != registry.is_static(node.class_id):
                raise ValidationError(f"node {nid} is in the wrong partition for its class kind")
        for fs in self.frames:
            for nid in fs.node_ids:
                if nid not in ids:
                    raise ValidationError(f"frame {fs.frame_index} references missing node {nid}")

    def equals(self, other: "SceneGraph25D") -> bool:
        if (
            self.video_id != other.video_id
            or self.max_frames != other.max_frames
            or self.static_nodes != other.static_nodes
            or self.dynamic_nodes != other.dynamic_nodes
            or self.registry_digest != other.registry_digest
            or len(self.frames) != len(other.frames)
            or set(self.nodes) != set(other.nodes)
        ):
            return False
        for a, b in zip(self.frames, other.frames):
            if a.frame_index != b.frame_index or a.node_ids != b.node_ids:
                return False
        return all(self.nodes[nid].equals(other.nodes[nid]) for nid in self.nodes)


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
    intrinsics: Intrinsics | None = None,
    image_size: tuple[float, float] = (256.0, 256.0),
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
    if intrinsics is None:
        intrinsics = default_intrinsics(*image_size)
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


def _parse_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise ParseError("expected a JSON object", line=lineno)
            out.append((lineno, rec))
    return out


_DETECTION_KEYS = ("video_id", "frame_index", "class_id", "bbox", "depth", "feature")


def _is_int(value) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_list(values) -> bool:
    """A JSON list of finite numbers."""
    try:
        return isinstance(values, list) and all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def _check_detection(rec: dict, lineno: int, widths: dict[str, int]) -> None:
    """Reject a detection line with a missing field, a non-integer id, a non-finite number
    or a feature width other than the one `widths` holds for its key (set by its first use)."""
    missing = [k for k in _DETECTION_KEYS if k not in rec]
    if missing:
        raise ParseError(f"detection missing fields {missing}", line=lineno)
    for key in ("frame_index", "class_id"):
        if not _is_int(rec[key]):
            raise ParseError(f"{key} must be an integer, got {rec[key]!r}", line=lineno)
    motion = rec.get("motion_feature")
    for key, values in (
        ("depth", [rec["depth"]]),
        ("bbox", rec["bbox"]),
        ("feature", rec["feature"]),
        ("motion_feature", [] if motion is None else motion),
    ):
        if not _finite_list(values):
            raise ParseError(f"{key} must hold finite numbers only, got {rec[key]!r}", line=lineno)
    for key in ("feature", "motion_feature"):
        if rec.get(key) is not None and len(rec[key]) != widths.setdefault(key, len(rec[key])):
            raise ParseError(f"{key} has {len(rec[key])} values, not {widths[key]}", line=lineno)


def load_detection_groups(
    path: str | Path,
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics | None = None,
    image_size: tuple[float, float] = (256.0, 256.0),
) -> list[SceneGraph25D]:
    """Load a detection JSONL file into one graph per video (first-appearance order)."""
    groups: dict[str, tuple[list[dict], list[int]]] = {}
    widths: dict[str, int] = {}  # feature widths of the file's first record with each key
    for lineno, rec in _parse_jsonl(path):
        _check_detection(rec, lineno, widths)
        recs, lines = groups.setdefault(str(rec["video_id"]), ([], []))
        recs.append(rec)
        lines.append(lineno)
    if not groups:
        raise ValidationError(f"no detections in {path}")
    if max_frames is None:
        max_frames = max(int(r["frame_index"]) for recs, _ in groups.values() for r in recs) + 1
    return [
        graph_from_records(recs, registry, max_frames, intrinsics, image_size, lines)
        for recs, lines in groups.values()
    ]


def load_detections(
    path: str | Path,
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics | None = None,
    image_size: tuple[float, float] = (256.0, 256.0),
) -> SceneGraph25D:
    """Load a single-video detection JSONL file into a lifted, partitioned graph."""
    graphs = load_detection_groups(path, registry, max_frames, intrinsics, image_size)
    if len(graphs) != 1:
        raise ValidationError(
            f"{path} holds {len(graphs)} videos; use load_detection_groups"
        )
    return graphs[0]


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
    motion = obj["motion_feature"]
    return SceneNode(
        node_id=int(obj["node_id"]),
        class_id=int(obj["class_id"]),
        feature=np.asarray(obj["feature"], dtype=np.float64),
        bbox=tuple(float(v) for v in obj["bbox"]),
        centroid3d=np.asarray(obj["centroid3d"], dtype=np.float64),
        timestamps=[float(t) for t in obj["timestamps"]],
        source_frames=[int(f) for f in obj["source_frames"]],
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


def _graph_from_body(obj: dict, digest: str | None) -> SceneGraph25D:
    nodes = [_node_from_json(n) for n in obj["nodes"]]
    return SceneGraph25D(
        video_id=str(obj["video_id"]),
        max_frames=int(obj["max_frames"]),
        nodes={n.node_id: n for n in nodes},
        frames=[FrameSet(int(f["frame_index"]), [int(i) for i in f["node_ids"]]) for f in obj["frames"]],
        static_nodes={int(i) for i in obj["static_nodes"]},
        dynamic_nodes={int(i) for i in obj["dynamic_nodes"]},
        registry_digest=digest,
    )


def _check_header(obj: dict, path: str | Path) -> None:
    if obj.get("format") != GRAPH_FORMAT:
        raise FormatError(f"{path}: not a {GRAPH_FORMAT} file")
    if obj.get("version") != GRAPH_VERSION:
        raise FormatError(f"{path}: unsupported version {obj.get('version')!r}")


def save_graph(graph: SceneGraph25D, path: str | Path) -> None:
    obj = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "registry_digest": graph.registry_digest,
    }
    obj.update(_graph_body(graph))
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_graph(path: str | Path) -> SceneGraph25D:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_header(obj, path)
    if "graphs" in obj:
        raise FormatError(f"{path}: corpus file; use load_corpus")
    return _graph_from_body(obj, obj.get("registry_digest"))


def save_corpus(graphs: list[SceneGraph25D], path: str | Path) -> None:
    digests = {g.registry_digest for g in graphs}
    obj = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "registry_digest": digests.pop() if len(digests) == 1 else None,
        "graphs": [_graph_body(g) for g in graphs],
    }
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_corpus(path: str | Path) -> list[SceneGraph25D]:
    """Load a graph file holding either one video or a multi-video corpus."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_header(obj, path)
    digest = obj.get("registry_digest")
    if "graphs" in obj:
        return [_graph_from_body(g, digest) for g in obj["graphs"]]
    return [_graph_from_body(obj, digest)]
