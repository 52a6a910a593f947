"""Core (2.5+1)D scene-graph table, detection ingestion, and serialization."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError, RegistryError, ValidationError, located
from .lift import Intrinsics, bad_depths, default_intrinsics, degenerate_boxes, lift_centroid
from .schema import INT, NUMBER, OBJECT, STR, check, check_rows, jsonl_blocks, list_of, optional, typed_prefix

STATIC = "static"
DYNAMIC = "dynamic"

GRAPH_FORMAT = "prism25d-graph"
GRAPH_VERSION = 2
DEFAULT_INTRINSICS = default_intrinsics(256.0, 256.0)
_UNIT_BOX = (0.0, 0.0, 1.0, 1.0)  # stands in for a faulty record's box


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
        cols = check_rows(obj["classes"], _CLASS_FIELDS)
        entries = {}
        for cid, name, kind in zip(cols["id"], cols["name"], cols["kind"]):
            if cid in entries:
                raise ValidationError(f"duplicate class id {cid} in registry")
            entries[cid] = ClassEntry(name, kind)
        return ClassRegistry(entries)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "ClassRegistry":
        return ClassRegistry.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


_CLASS_FIELDS = {"id": INT, "name": STR, "kind": STR}


def _ints(values: list[int]) -> np.ndarray:
    """Integers as an int64 array, or as an object array when one does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _matrix(rows: list) -> np.ndarray:
    """Equal-length number lists as one (len(rows), width) float array; (0, 0) for none."""
    a = np.array(rows, dtype=np.float64)
    return a if a.ndim == 2 else a.reshape(len(rows), 0)


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of entries equal in every one of `keys`."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


@dataclass
class SceneGraph25D:
    """One video's graph as a table of node columns: one row per node, rows in ascending id.

    Row i was observed at obs_frames[obs_start[i]:obs_start[i + 1]]; a frame's time is
    frame / max_frames. The frame listings are (listed_frames, listed_rows) pairs, frames
    ascending and one frame's rows in file order. Id, class and frame columns are int64,
    or object arrays when a value does not fit int64.
    """

    video_id: str
    max_frames: int
    nodes: np.ndarray  # (n,) node ids
    class_ids: np.ndarray  # (n,)
    static: np.ndarray  # (n,) bool
    features: np.ndarray  # (n, d_o)
    motions: np.ndarray  # (dynamic rows, d_a), in row order
    boxes: np.ndarray  # (n, 4)
    centroids: np.ndarray  # (n, 3)
    obs_start: np.ndarray  # (n + 1,)
    obs_frames: np.ndarray  # (m,)
    listed_frames: np.ndarray  # (k,)
    listed_rows: np.ndarray  # (k,)
    registry_digest: str | None = None

    @property
    def frames(self) -> np.ndarray:
        """The listed frame indices, ascending."""
        return self.listed_frames[run_starts(self.listed_frames)]

    def validate(self, node_faults=()) -> None:
        """Check that the columns agree: the rules of `check_nodes`, then of `check_listings`."""
        self.check_nodes(node_faults)
        self.check_listings()

    def check_nodes(self, node_faults=()) -> None:
        """Raise for the first bad node, then for a `max_frames` below 1. A node's source frames
        must be nonempty, sorted and in [0, max_frames); `node_faults` holds more node rules as
        (bad-row mask, error class, message for row i), reported after these in the same pass."""
        ids, f, counts = self.nodes, self.obs_frames, np.diff(self.obs_start)
        owner = np.repeat(np.arange(len(ids)), counts)
        bad_obs = counts == 0
        bad_obs[owner[1:][(owner[1:] == owner[:-1]) & (f[1:] < f[:-1])]] = True
        outside = np.bincount(owner[(f < 0) | (f >= self.max_frames)], minlength=len(ids)) > 0
        _raise_first([
            (bad_obs, ValidationError, lambda i: f"node {ids[i]}: source_frames must be nonempty and sorted"),
            (outside, ValidationError,
             lambda i: f"node {ids[i]}: source frames must lie in [0, {self.max_frames})"),
            (degenerate_boxes(self.boxes), ValidationError,
             lambda i: f"node {ids[i]}: degenerate bbox {tuple(self.boxes[i].tolist())}"),
            *node_faults,
        ])
        if self.max_frames < 1:
            raise ValidationError(f"max_frames must be positive, got {self.max_frames}")

    def check_listings(self) -> None:
        """Raise unless each node is listed once in each of its source frames, and nowhere else."""
        ids, counts = self.nodes, np.diff(self.obs_start)
        # one run per (frame, row) pair among the listings (listed) and the observations
        frame = np.concatenate((self.listed_frames, self.obs_frames))
        row = np.concatenate((self.listed_rows, np.repeat(np.arange(len(ids)), counts)))
        order = np.lexsort((row, frame))
        frame, row, listed = frame[order], row[order], (order < len(self.listed_rows)).astype(np.int64)
        first = run_starts(frame, row)
        n_listed = np.add.reduceat(listed, first)
        n_seen = np.diff(np.append(first, len(row))) - n_listed
        _raise_first([
            (n_seen == 0, ValidationError, lambda g: f"frame {frame[first[g]]} lists node "
             f"{ids[row[first[g]]]}, which is missing or has no source frame there"),
            (n_listed > 1, ValidationError,
             lambda g: f"frame {frame[first[g]]} lists node {ids[row[first[g]]]} more than once"),
            (n_listed == 0, ValidationError,
             lambda g: f"node {ids[row[first[g]]]} is not listed in its source frame {frame[first[g]]}"),
        ])

    def __eq__(self, other) -> bool:
        """Equal when both write the same graph-file body under the same registry digest."""
        return (isinstance(other, SceneGraph25D) and self.registry_digest == other.registry_digest
                and _graph_body(self) == _graph_body(other))


def _raise_first(faults, lines: list[int] | None = None) -> None:
    """Raise for the first bad record, as `check_rows` does: `faults` holds (bad-record mask,
    error class, message for record i) in the order a record's own faults are reported.
    The first record with a fault wins, then its first fault."""
    hits = [(int(np.flatnonzero(bad)[0]), k) for k, (bad, _, _) in enumerate(faults) if np.any(bad)]
    if hits:
        i, k = min(hits)
        _, error, message = faults[k]
        raise error(message(i), line=None if lines is None else int(lines[i]))


def graphs_from_records(
    records: list[dict],
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
) -> list[SceneGraph25D]:
    """One graph per video of detection records (parsed JSON lines: JSON types only, so a
    float is a Python float), in first-appearance order. The records are checked as one
    block of a detection file's lines is, with the same errors, less the line numbers.

    Node ids are assigned sequentially in record order. `max_frames` is the
    dataset-wide frame count that scales frames to times; when omitted it
    defaults to the records' frame span.
    """
    names: dict[str, int] = {}
    return _assemble(_detection_block(records, None, {}, names), names, registry, max_frames, intrinsics)


def load_detection_groups(
    path: str | Path,
    registry: ClassRegistry,
    max_frames: int | None = None,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
) -> list[SceneGraph25D]:
    """Load a detection JSONL file into one graph per video (first-appearance order), as
    `graphs_from_records` would from all its lines, holding the parsed lines of one block
    at a time; an error names the first bad line."""
    widths: dict[str, int] = {}  # feature widths of the file's first line with each key
    names: dict[str, int] = {}  # video ids in first-appearance order
    cols = _join([_detection_block(records, lines, widths, names) for lines, records in jsonl_blocks(path)])
    if not names:
        raise ValidationError(f"no detections in {path}")
    return _assemble(cols, names, registry, max_frames, intrinsics)


_FEATURES = {"feature": list_of(NUMBER), "motion_feature": optional(list_of(NUMBER))}
_DETECTION_FIELDS = {
    "video_id": STR, "frame_index": INT, "class_id": INT, "bbox": list_of(NUMBER, 4), "depth": NUMBER,
    **_FEATURES,
}


def _feature_rows(
    records: list, fields: dict, widths: dict[str, int], lines: list[int] | None = None
) -> dict[str, list]:
    """`check_rows` columns whose feature keys keep one width per file: `widths` holds the
    width of each key's first use. The first bad record is reported, and in it a missing
    or mistyped field before a width."""
    cols, fault = typed_prefix(records, fields, lines)
    for key in _FEATURES:
        sizes = [len(v) for v in cols[key] if v is not None]
        if sizes and set(sizes) != {widths.setdefault(key, sizes[0])}:
            i = next(i for i, v in enumerate(cols[key]) if v is not None and len(v) != widths[key])
            raise ParseError(f"{key} has {len(cols[key][i])} values, not {widths[key]}",
                             line=None if lines is None else lines[i])
    if fault is not None:
        raise fault
    return cols


def _detection_block(records: list, lines: list[int] | None, widths: dict[str, int],
                     names: dict[str, int]) -> dict[str, np.ndarray]:
    """A block of detection records, parse-checked (`_feature_rows`), as column arrays;
    `names` numbers the video ids in first-appearance order over the blocks."""
    cols = _feature_rows(records, _DETECTION_FIELDS, widths, lines)
    motions = cols["motion_feature"]
    block = {
        "video": np.array([names.setdefault(v, len(names)) for v in cols["video_id"]], dtype=np.int64),
        "frame": _ints(cols["frame_index"]),
        "class": _ints(cols["class_id"]),
        "box": np.array(cols["bbox"], dtype=np.float64).reshape(-1, 4),
        "depth": np.array(cols["depth"], dtype=np.float64),
        "feature": _matrix(cols["feature"]),
        "moving": np.array([m is not None for m in motions], dtype=bool),
        "motion": _matrix([m for m in motions if m is not None]),
    }
    if lines is not None:
        block["line"] = np.array(lines, dtype=np.int64)
    return block


def _join(blocks: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The columns of all blocks, each joined over the blocks with rows in it."""
    return {key: np.concatenate([b[key] for b in blocks if len(b[key])] or [blocks[0][key]])
            for key in (blocks[0] if blocks else ())}


def _assemble(cols: dict[str, np.ndarray], names: dict[str, int], registry: ClassRegistry,
              max_frames: int | None, intrinsics: Intrinsics) -> list[SceneGraph25D]:
    """Check the parsed detection columns of one file as a whole (class, box, depth, motion
    kind, frame range, then the lifted centroid, first bad record first), and split them
    into one graph per video."""
    frames, class_ids, boxes, depths, moving = (cols[k] for k in ("frame", "class", "box", "depth", "moving"))
    if max_frames is None:
        max_frames = int(frames.max()) + 1 if len(frames) else 1
    if max_frames <= 0:
        raise ValidationError(f"max_frames must be positive, got {max_frames}")
    kind_of = {c: e.kind for c, e in registry.entries.items()}
    kinds = [kind_of.get(c) for c in class_ids.tolist()]
    static, dynamic = (np.array([k == kind for k in kinds], dtype=bool) for kind in (STATIC, DYNAMIC))
    checks = [
        (~(static | dynamic), RegistryError, lambda i: f"unknown class_id {class_ids[i]}"),
        (degenerate_boxes(boxes), ValidationError,
         lambda i: f"degenerate bbox {tuple(boxes[i].tolist())}: requires x1 < x2 and y1 < y2"),
        (bad_depths(depths), ValidationError,
         lambda i: f"depth must be positive and finite, got {depths[i]}"),
        (dynamic & ~moving, ValidationError,
         lambda i: f"dynamic detection (class {class_ids[i]}) lacks motion_feature"),
        (static & moving, ValidationError,
         lambda i: f"static detection (class {class_ids[i]}) carries motion_feature"),
        ((frames < 0) | (frames >= max_frames), ValidationError,
         lambda i: f"frame_index {frames[i]} outside [0, {max_frames})"),
    ]
    bad = np.logical_or.reduce([mask for mask, _, _ in checks])  # reported before a centroid
    centroids = lift_centroid(np.where(bad[:, None], _UNIT_BOX, boxes), np.where(bad, 1.0, depths),
                              intrinsics)
    checks.append((~np.isfinite(centroids).all(axis=1), ValidationError,
                   lambda i: f"lifted centroid {centroids[i].tolist()} is not finite"))
    _raise_first(checks, cols.get("line"))

    features, motion_rows, video = cols["feature"], cols["motion"], cols["video"]
    motion_of = np.cumsum(moving) - 1
    digest = registry.digest()
    order = np.argsort(video, kind="stable")
    cuts = np.searchsorted(video[order], np.arange(len(names) + 1))
    graphs = []
    for name, rows in zip(names, np.split(order, cuts[1:-1])):
        f = frames[rows]
        listing = np.argsort(f, kind="stable")
        graphs.append(SceneGraph25D(
            video_id=name, max_frames=max_frames, nodes=np.arange(len(rows)), class_ids=class_ids[rows],
            static=static[rows], features=features[rows], motions=motion_rows[motion_of[rows[moving[rows]]]],
            boxes=boxes[rows], centroids=centroids[rows], obs_start=np.arange(len(rows) + 1),
            obs_frames=f, listed_frames=f[listing], listed_rows=listing,
            registry_digest=digest,
        ))
    return graphs


def _graph_body(graph: SceneGraph25D) -> dict:
    ids = graph.nodes.tolist()
    motions = [None] * len(ids)
    for row, motion in zip(np.flatnonzero(~graph.static).tolist(), graph.motions.tolist()):
        motions[row] = motion
    cuts, frames = graph.obs_start.tolist(), graph.obs_frames.tolist()
    listed, listed_frames = graph.nodes[graph.listed_rows].tolist(), graph.listed_frames.tolist()
    starts = run_starts(graph.listed_frames).tolist() + [len(listed)]
    return {
        "video_id": graph.video_id,
        "max_frames": graph.max_frames,
        "nodes": [
            {"node_id": nid, "class_id": c, "feature": f, "motion_feature": m, "bbox": b, "centroid3d": p,
             "source_frames": frames[lo:hi]}
            for nid, c, f, m, b, p, lo, hi in zip(
                ids, graph.class_ids.tolist(), graph.features.tolist(), motions, graph.boxes.tolist(),
                graph.centroids.tolist(), cuts, cuts[1:])
        ],
        "frames": [{"frame_index": listed_frames[lo], "node_ids": listed[lo:hi]}
                   for lo, hi in zip(starts, starts[1:])],
        "static_nodes": graph.nodes[graph.static].tolist(),
        "dynamic_nodes": graph.nodes[~graph.static].tolist(),
    }


_NODE_FIELDS = {
    "node_id": INT, "class_id": INT, **_FEATURES, "bbox": list_of(NUMBER, 4),
    "centroid3d": list_of(NUMBER, 3), "source_frames": list_of(INT),
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
        cols = _feature_rows(obj["nodes"], _NODE_FIELDS, widths)
        frame_cols = check_rows(obj["frames"], _FRAME_FIELDS)
        ids = _ints(cols["node_id"])
        order = np.argsort(ids, kind="stable")
        ids, rows = ids[order], order.tolist()
        if np.any(ids[1:] == ids[:-1]):
            raise ValidationError(f"repeats node id {ids[1:][ids[1:] == ids[:-1]][0]}")
        row_of = {nid: row for row, nid in enumerate(ids.tolist())}
        listed = obj["static_nodes"] + obj["dynamic_nodes"]
        count = Counter(listed)
        # the first listed id that is no node or is listed twice (in one list or both), else the
        # first node in neither
        stray = [nid for nid in listed + list(row_of) if nid not in row_of or count[nid] != 1]
        if stray:
            raise ValidationError(f"static/dynamic sets do not partition the node ids at node {stray[0]}")
        static = set(obj["static_nodes"])
        static_mask = np.array([nid in static for nid in row_of], dtype=bool)
        frames, motions = ([cols[key][i] for i in rows] for key in ("source_frames", "motion_feature"))
        indices, node_ids = frame_cols["frame_index"], frame_cols["node_ids"]
        listed_ids = [nid for listing in node_ids for nid in listing]
        listed_rows = np.array([row_of.get(nid, -1) for nid in listed_ids], dtype=np.int64)  # -1: missing
        listed_frames = [f for f, listing in zip(indices, node_ids) for _ in listing]
        graph = SceneGraph25D(
            video_id=obj["video_id"], max_frames=obj["max_frames"], nodes=ids,
            class_ids=_ints(cols["class_id"])[order], static=static_mask,
            features=_matrix(cols["feature"])[order],
            motions=_matrix([m for m in motions if m is not None]),
            boxes=np.array(cols["bbox"], dtype=np.float64).reshape(-1, 4)[order],
            centroids=np.array(cols["centroid3d"], dtype=np.float64).reshape(-1, 3)[order],
            obs_start=np.cumsum([0] + [len(fs) for fs in frames]),
            obs_frames=_ints([f for fs in frames for f in fs]),
            listed_frames=_ints(listed_frames), listed_rows=listed_rows,
            registry_digest=digest,
        )
        graph.check_nodes([
            (np.array([m is not None for m in motions], dtype=bool) == static_mask, ValidationError,
             lambda i: f"node {ids[i]}: dynamic nodes, and only they, carry a motion feature"),
        ])
        for before, after in zip(indices, indices[1:]):
            if after <= before:
                raise ValidationError(f"frame indices must strictly ascend, got {after} after {before}")
        _raise_first([(listed_rows < 0, ValidationError, lambda i: f"frame {listed_frames[i]} lists node "
                       f"{listed_ids[i]}, which is missing or has no source frame there")])
        graph.check_listings()
    return graph


def _check_header(obj: dict, path: str | Path) -> None:
    if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
        raise FormatError(f"{path}: not a {GRAPH_FORMAT} file")
    if obj.get("version") != GRAPH_VERSION:
        raise FormatError(f"{path}: unsupported version {obj.get('version')!r}")


def save_corpus(graphs: list[SceneGraph25D], path: str | Path) -> None:
    """Write one graph's body at the top level, or several under "graphs"; write the file
    only once all of it is known to be valid JSON: no NaN or infinity. The graphs must
    share one registry digest, which the file carries once."""
    digests = list(dict.fromkeys(g.registry_digest for g in graphs))
    if len(digests) > 1:
        raise ValidationError(f"graphs carry different registry digests {digests}; "
                              "a graph file holds one")
    body = _graph_body(graphs[0]) if len(graphs) == 1 else {"graphs": [_graph_body(g) for g in graphs]}
    obj = {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "registry_digest": digests[0] if digests else None,
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
    disagree (see `SceneGraph25D.validate`) or a repeated video is a
    ValidationError.
    """
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    _check_header(obj, path)
    if "graphs" not in obj:
        obj = {"registry_digest": obj.get("registry_digest"), "graphs": [obj]}
    check(obj, _CORPUS_FIELDS)
    widths: dict[str, int] = {}  # feature widths of the file's first node with each key
    graphs = [_graph_from_body(g, obj["registry_digest"], widths) for g in obj["graphs"]]
    seen: set[str] = set()
    for g in graphs:
        if g.video_id in seen:
            raise ValidationError(f"{path}: video {g.video_id!r} appears more than once")
        seen.add(g.video_id)
    return graphs
