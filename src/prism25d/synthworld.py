"""Deterministic synthetic 3D worlds with projected detections and QA tasks."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import DYNAMIC, STATIC, ClassEntry, ClassRegistry
from .lift import Intrinsics, RigidTransform, default_intrinsics
from .qa import QaInstance
from .schema import read

STATIC_CLASS_BASE = 1
DYNAMIC_CLASS_BASE = 101
_STATIC_NAMES = ("table", "shelf", "lamp", "plant", "rack", "bench", "crate", "stand")
_DYNAMIC_NAMES = ("person", "cart", "drone", "ball", "robot", "dog", "bike", "tote")

# toy QA language: pad 0, task markers, then disjoint per-role token ranges
PAD_TOKEN = 0
TASK_TOKENS = {"nearest_static": 1, "visited_order": 2, "count_dynamic": 3}
STATIC_TOKEN_BASE = 10
DYNAMIC_TOKEN_BASE = 40
COUNT_TOKEN_BASE = 70
VOCAB_SIZE = 100

N_CANDIDATES = 5
MAX_FRAMES = 1000  # bounds on a spec's sizes, so that no spec exhausts time or memory
MAX_WIDTH = 1024
MAX_IMAGE_SIDE = 65536
REACH_RADIUS = 0.5  # "reaching" a static object, for visited-order questions
COUNT_RADIUS = 1.0  # entry radius for count questions


def default_registry() -> ClassRegistry:
    entries = {}
    for i, name in enumerate(_STATIC_NAMES):
        entries[STATIC_CLASS_BASE + i] = ClassEntry(name, STATIC)
    for i, name in enumerate(_DYNAMIC_NAMES):
        entries[DYNAMIC_CLASS_BASE + i] = ClassEntry(name, DYNAMIC)
    return ClassRegistry(entries)


@dataclass(frozen=True)
class CameraSpec:
    kind: str = "stationary"  # stationary | translating | orbiting
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)  # per frame, world units
    angular_rate: float = 0.0  # radians per frame about the vertical axis

    def __post_init__(self):
        if self.kind not in ("stationary", "translating", "orbiting"):
            raise ValidationError(f"unknown camera kind {self.kind!r}")
        if abs(self.angular_rate) > math.pi:  # beyond half a turn per frame, rotations alias
            raise ValidationError(f"angular_rate must lie in [-pi, pi], got {self.angular_rate}")


@dataclass(frozen=True)
class NoiseSpec:
    bbox_px: float = 0.0  # std-dev of per-corner pixel jitter
    depth: float = 0.0  # std-dev of depth jitter, world units

    def __post_init__(self):
        if self.bbox_px < 0.0 or self.depth < 0.0:
            raise ValidationError("noise std-devs must not be negative")


@dataclass(frozen=True)
class WorldSpec:
    seed: int
    video_id: str
    n_frames: int = 8
    n_static: int = 5
    n_dynamic: int = 2
    camera: CameraSpec = CameraSpec()
    noise: NoiseSpec = NoiseSpec()
    image_size: tuple[int, int] = (256, 256)
    view_distance: float = 6.0
    d_o: int = 16
    d_a: int = 8
    extent_range: tuple[float, float] = (0.9, 1.4)
    static_separation: float = 1.4
    pass_distance: tuple[float, float] = (0.1, 0.2)
    traj_targets: int = 1  # static objects each dynamic trajectory visits
    n_static_classes: int = 4
    n_dynamic_classes: int = 4

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must not be negative, got {self.seed}")
        if not (1 <= self.n_frames <= MAX_FRAMES) or self.n_static < 1 or self.n_dynamic < 0:
            raise ValidationError(f"world needs 1 to {MAX_FRAMES} frames, a static object, "
                                  "and no negative object count")
        if self.d_o > MAX_WIDTH or not (4 <= self.d_a <= MAX_WIDTH):  # motion: velocity and speed
            raise ValidationError(f"d_o must be at most {MAX_WIDTH}, and d_a from 4 to {MAX_WIDTH}")
        if self.n_static > self.d_o // 2 or self.n_dynamic > self.d_o - self.d_o // 2:
            raise ValidationError("too many objects for the identity-coded feature width")
        if not all(1 <= side <= MAX_IMAGE_SIDE for side in self.image_size):
            raise ValidationError(f"image sides must be 1 to {MAX_IMAGE_SIDE} pixels")
        if not (0.0 < self.extent_range[0] <= self.extent_range[1]
                and 0.0 <= self.pass_distance[0] <= self.pass_distance[1]):
            raise ValidationError("extent_range and pass_distance must be (low, high) with "
                                  "0 < low <= high (0 <= low for pass_distance)")
        if self.traj_targets not in (1, 2):
            raise ValidationError("traj_targets must be 1 or 2")
        if not (1 <= self.n_static_classes <= len(_STATIC_NAMES)
                and 1 <= self.n_dynamic_classes <= len(_DYNAMIC_NAMES)):
            raise ValidationError("class counts must be 1 to the number of registered classes")

    def intrinsics(self) -> Intrinsics:
        return default_intrinsics(*self.image_size)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "WorldSpec":
        """Spec from a JSON object; fields with defaults may be left out."""
        return read(WorldSpec, obj, partial=True)


@dataclass
class World:
    spec: WorldSpec
    static_positions: np.ndarray  # (S, 3) world coordinates
    static_classes: list[int]
    static_extents: np.ndarray  # (S, 2) box width/height, world units
    static_features: np.ndarray  # (S, d_o)
    dynamic_tracks: np.ndarray  # (D, F, 3)
    dynamic_classes: list[int]
    dynamic_extents: np.ndarray  # (D, 2)
    dynamic_features: np.ndarray  # (D, d_o)
    dynamic_targets: list[list[int]]  # per object, static indices its path visits
    camera_rotations: list[np.ndarray]  # world-from-camera rotation per frame
    camera_centers: list[np.ndarray]


@dataclass
class GroundTruth:
    video_id: str
    detection_to_object: dict[int, int]  # static detection id -> world object id
    poses: list[RigidTransform]  # frame-k camera coordinates -> frame-0 coordinates
    static_positions: np.ndarray
    dynamic_tracks: np.ndarray
    qa: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "video_id": self.video_id,
            "detection_to_object": {str(k): v for k, v in self.detection_to_object.items()},
            "poses": [
                {"rotation": [[float(x) for x in row] for row in p.rotation],
                 "translation": [float(x) for x in p.translation]}
                for p in self.poses
            ],
            "static_positions": [[float(x) for x in p] for p in self.static_positions],
            "dynamic_tracks": [[[float(x) for x in p] for p in track] for track in self.dynamic_tracks],
            "qa": self.qa,
        }


def _rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _camera_track(spec: WorldSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    base = np.array([0.0, 0.0, -spec.view_distance])
    rotations, centers = [], []
    for t in range(spec.n_frames):
        if spec.camera.kind == "stationary":
            r, c = np.eye(3), base
        elif spec.camera.kind == "translating":
            r, c = np.eye(3), base + t * np.asarray(spec.camera.velocity, dtype=np.float64)
        else:
            r = _rot_y(spec.camera.angular_rate * t)
            c = r @ base
        rotations.append(r)
        centers.append(c)
    return rotations, centers


def _to_camera(point: np.ndarray, rot: np.ndarray, center: np.ndarray) -> np.ndarray:
    return rot.T @ (point - center)


def _project(
    point: np.ndarray, extent: np.ndarray, rot: np.ndarray, center: np.ndarray, intr: Intrinsics
) -> tuple[tuple[float, float, float, float], float]:
    cam = _to_camera(point, rot, center)
    z = cam[2]
    if z <= 0.5:
        raise ValidationError("object behind or too close to the camera")
    u = intr.fx * cam[0] / z + intr.cx
    v = intr.fy * cam[1] / z + intr.cy
    hw = intr.fx * (extent[0] / 2.0) / z
    hh = intr.fy * (extent[1] / 2.0) / z
    return (u - hw, v - hh, u + hw, v + hh), float(z)


def _in_image(bbox, spec: WorldSpec, margin: float = 2.0) -> bool:
    w, h = spec.image_size
    return (
        bbox[0] >= margin and bbox[1] >= margin and bbox[2] <= w - margin and bbox[3] <= h - margin
    )


def _boxes_disjoint(a, b) -> bool:
    return a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]


def _placement_box(spec: WorldSpec) -> np.ndarray:
    half = np.array([1.4, 0.9, 1.2])
    if spec.camera.kind == "translating":
        travel = np.abs(np.asarray(spec.camera.velocity)) * (spec.n_frames - 1)
        half = np.maximum(half - travel, 0.3)
    elif spec.camera.kind == "orbiting":
        swing = abs(spec.camera.angular_rate) * (spec.n_frames - 1) * 2.2
        half = np.maximum(half - np.array([swing, 0.0, swing]), 0.3)
    return half


def _sample_static_layout(spec: WorldSpec, rng: np.random.Generator) -> np.ndarray | None:
    half = _placement_box(spec)
    pts: list[np.ndarray] = []
    for _ in range(spec.n_static):
        placed = False
        for _ in range(80):
            p = rng.uniform(-half, half)
            if all(np.linalg.norm(p - q) >= spec.static_separation for q in pts):
                pts.append(p)
                placed = True
                break
        if not placed:
            return None
    return np.stack(pts)


def _sample_trajectory(
    spec: WorldSpec,
    rng: np.random.Generator,
    statics: np.ndarray,
    targets: list[int],
) -> np.ndarray | None:
    half = _placement_box(spec)
    for _ in range(40):
        if spec.n_frames == 1:
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            start = statics[targets[0]] + direction * rng.uniform(*spec.pass_distance)
        else:
            start = rng.uniform(-half, half)
            if min(np.linalg.norm(start - s) for s in statics) < 0.8:
                continue
        waypoints = [start]
        ok = True
        for tgt in targets:
            picks = 2 if len(targets) == 1 else 1  # single-target paths dwell near the target
            for _ in range(picks):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                dist = rng.uniform(*spec.pass_distance)
                wp = statics[tgt] + direction * dist
                if np.any(np.abs(wp) > half + 0.4):
                    ok = False
                    break
                waypoints.append(wp)
            if not ok:
                break
        if not ok:
            continue
        knots = np.linspace(0.0, 1.0, len(waypoints))
        s = np.linspace(0.0, 1.0, spec.n_frames)
        track = np.stack(
            [np.interp(s, knots, [w[a] for w in waypoints]) for a in range(3)], axis=1
        )

        dists = np.linalg.norm(track[:, None, :] - statics[None, :, :], axis=2)  # (F, S)
        min_per_static = dists.min(axis=0)
        others = [i for i in range(len(statics)) if i not in targets]
        if others and min_per_static[others].min() < 0.8:
            continue
        if any(min_per_static[t] > spec.pass_distance[1] + 0.05 for t in targets):
            continue
        if len(targets) == 2:
            first = np.argmax(dists[:, targets[0]] < REACH_RADIUS)
            second = np.argmax(dists[:, targets[1]] < REACH_RADIUS)
            if not (dists[:, targets[0]] < REACH_RADIUS).any():
                continue
            if (dists[:, targets[1]] < REACH_RADIUS).any() and second <= first:
                continue
        return track
    return None


def _identity_features(spec: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    stat = np.zeros((spec.n_static, spec.d_o))
    for i in range(spec.n_static):
        stat[i, i] = 1.0
    dyn = np.zeros((spec.n_dynamic, spec.d_o))
    for j in range(spec.n_dynamic):
        dyn[j, spec.d_o // 2 + j] = 1.0
    return stat, dyn


def build_world(spec: WorldSpec, max_attempts: int = 60) -> World:
    """Sample a world satisfying every visibility and separation constraint.

    Re-samples from the seeded stream until the constraints hold, so the
    result is a pure function of the spec; raises once attempts run out.
    """
    rng = np.random.default_rng(spec.seed)
    rotations, centers = _camera_track(spec)
    intr = spec.intrinsics()
    stat_feat, dyn_feat = _identity_features(spec)

    for _ in range(max_attempts):
        statics = _sample_static_layout(spec, rng)
        if statics is None:
            continue
        static_extents = rng.uniform(*spec.extent_range, size=(spec.n_static, 2))
        static_classes = [STATIC_CLASS_BASE + i % spec.n_static_classes for i in range(spec.n_static)]

        tracks, target_lists = [], []
        ok = True
        for _ in range(spec.n_dynamic):
            targets = list(
                rng.choice(spec.n_static, size=min(spec.traj_targets, spec.n_static), replace=False)
            )
            track = _sample_trajectory(spec, rng, statics, targets)
            if track is None:
                ok = False
                break
            tracks.append(track)
            target_lists.append([int(t) for t in targets])
        if not ok:
            continue
        dynamic_tracks = (
            np.stack(tracks) if tracks else np.zeros((0, spec.n_frames, 3))
        )
        dynamic_extents = rng.uniform(*spec.extent_range, size=(spec.n_dynamic, 2))
        dynamic_classes = [
            DYNAMIC_CLASS_BASE + j % spec.n_dynamic_classes for j in range(spec.n_dynamic)
        ]

        # visibility of everything in every frame, on noiseless projections
        visible = True
        static_boxes: list[list] = [[] for _ in range(spec.n_static)]
        for t in range(spec.n_frames):
            try:
                for i in range(spec.n_static):
                    bbox, _ = _project(statics[i], static_extents[i], rotations[t], centers[t], intr)
                    if not _in_image(bbox, spec):
                        visible = False
                    static_boxes[i].append(bbox)
                for j in range(spec.n_dynamic):
                    bbox, _ = _project(
                        dynamic_tracks[j, t], dynamic_extents[j], rotations[t], centers[t], intr
                    )
                    if not _in_image(bbox, spec):
                        visible = False
            except ValidationError:
                visible = False
            if not visible:
                break
        if not visible:
            continue

        # same-class static boxes must never overlap, in any frame pair, so the
        # merge criterion cannot cross objects at any IoU threshold
        clean = True
        for i in range(spec.n_static):
            for j in range(i + 1, spec.n_static):
                if static_classes[i] != static_classes[j]:
                    continue
                for ba in static_boxes[i]:
                    for bb in static_boxes[j]:
                        if not _boxes_disjoint(ba, bb):
                            clean = False
        if not clean:
            continue

        return World(
            spec=spec,
            static_positions=statics,
            static_classes=static_classes,
            static_extents=static_extents,
            static_features=stat_feat,
            dynamic_tracks=dynamic_tracks,
            dynamic_classes=dynamic_classes,
            dynamic_extents=dynamic_extents,
            dynamic_features=dyn_feat,
            dynamic_targets=target_lists,
            camera_rotations=rotations,
            camera_centers=centers,
        )
    raise ValidationError(f"could not satisfy world constraints for seed {spec.seed}")


def _motion_feature(track: np.ndarray, t: int, d_a: int) -> np.ndarray:
    if track.shape[0] == 1:
        vel = np.zeros(3)
    elif t == 0:
        vel = track[1] - track[0]
    else:
        vel = track[t] - track[t - 1]
    out = np.zeros(d_a)
    out[:3] = vel
    out[3] = np.linalg.norm(vel)
    return out


def generate_world(spec: WorldSpec) -> tuple[list[dict], GroundTruth]:
    """Project a built world into detection records plus full ground truth."""
    world = build_world(spec)
    return world_detections(world), world_truth(world)


def world_truth(world: World) -> GroundTruth:
    spec = world.spec
    det_to_obj = {}
    det_id = 0
    for _ in range(spec.n_frames):
        for i in range(spec.n_static):
            det_to_obj[det_id] = i
            det_id += 1
        det_id += spec.n_dynamic
    r0, c0 = world.camera_rotations[0], world.camera_centers[0]
    poses = [
        RigidTransform(r0.T @ rk, r0.T @ (ck - c0))
        for rk, ck in zip(world.camera_rotations, world.camera_centers)
    ]
    return GroundTruth(
        video_id=spec.video_id,
        detection_to_object=det_to_obj,
        poses=poses,
        static_positions=world.static_positions,
        dynamic_tracks=world.dynamic_tracks,
    )


def world_detections(world: World) -> list[dict]:
    """Noiseless projection plus seeded post-projection jitter, frame-major order."""
    spec = world.spec
    intr = spec.intrinsics()
    noise_rng = np.random.default_rng([spec.seed, 7])
    records = []
    for t in range(spec.n_frames):
        rot, cen = world.camera_rotations[t], world.camera_centers[t]
        items = [
            (world.static_positions[i], world.static_extents[i], world.static_classes[i],
             world.static_features[i], None)
            for i in range(spec.n_static)
        ] + [
            (world.dynamic_tracks[j, t], world.dynamic_extents[j], world.dynamic_classes[j],
             world.dynamic_features[j], _motion_feature(world.dynamic_tracks[j], t, spec.d_a))
            for j in range(spec.n_dynamic)
        ]
        for pos, ext, cls, feat, motion in items:
            bbox, depth = _project(pos, ext, rot, cen, intr)
            if spec.noise.bbox_px > 0:
                x1, y1, x2, y2 = (c + noise_rng.normal(0.0, spec.noise.bbox_px) for c in bbox)
                bbox = (x1, y1, max(x2, x1 + 1e-6), max(y2, y1 + 1e-6))
            if spec.noise.depth > 0:
                depth = max(depth + noise_rng.normal(0.0, spec.noise.depth), 0.05)
            records.append(
                {
                    "video_id": spec.video_id,
                    "frame_index": t,
                    "class_id": cls,
                    "bbox": [float(v) for v in bbox],
                    "depth": float(depth),
                    "feature": [float(v) for v in feat],
                    "motion_feature": None if motion is None else [float(v) for v in motion],
                }
            )
    return records


def write_detections(records: list[dict], path: str | Path) -> None:
    try:
        lines = [json.dumps(rec, allow_nan=False) + "\n" for rec in records]
    except ValueError as exc:  # noise can push a box or depth beyond the float range
        raise ValidationError(f"detections hold a non-finite number: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def oracle_merge(records: list[dict], truth: GroundTruth) -> dict[int, list[int]]:
    """The true static partition: detections grouped by their world object."""
    classes: dict[int, list[int]] = {}
    for det_id in sorted(truth.detection_to_object):
        classes.setdefault(truth.detection_to_object[det_id], []).append(det_id)
    return classes


# ---------------------------------------------------------------------------
# QA generation


def _track_static_dists(world: World, d: int) -> np.ndarray:
    return np.linalg.norm(
        world.dynamic_tracks[d][:, None, :] - world.static_positions[None, :, :], axis=2
    )


def _candidate_row(
    gt_token: int, pool: list[int], rng: np.random.Generator
) -> tuple[tuple[tuple[int, ...], ...], int]:
    picks = rng.choice(len(pool), size=N_CANDIDATES - 1, replace=False)
    tokens = [gt_token] + [pool[int(i)] for i in picks]
    order = rng.permutation(N_CANDIDATES)
    candidates = tuple((tokens[int(k)],) for k in order)
    gt_index = int(np.where(order == 0)[0][0])
    return candidates, gt_index


def _static_token_pool(world: World, exclude: int) -> list[int]:
    spec = world.spec
    pool = [STATIC_TOKEN_BASE + s for s in range(spec.n_static) if s != exclude]
    extra = STATIC_TOKEN_BASE + spec.n_static
    while len(pool) < N_CANDIDATES - 1:
        pool.append(extra)  # filler token for worlds with few static objects
        extra += 1
    return pool


def generate_qa(
    world: World,
    truth: GroundTruth,
    task: str,
    n_instances: int,
    seed: int,
) -> tuple[list[QaInstance], list[dict]]:
    """Machine-answerable questions over the world, with answer derivations."""
    if task not in TASK_TOKENS:
        raise ValidationError(f"unknown task {task!r}")
    spec = world.spec
    rng = np.random.default_rng([seed, spec.seed])
    instances, derivations = [], []

    if task in ("nearest_static", "visited_order"):
        if spec.n_static < 2:
            raise ValidationError(f"{task} needs at least 2 static objects")
        if spec.n_dynamic < 1:
            raise ValidationError(f"{task} needs at least 1 dynamic object")
    if task == "count_dynamic" and spec.n_dynamic < N_CANDIDATES - 1:
        raise ValidationError("count_dynamic needs at least 4 dynamic objects")

    for k in range(n_instances):
        if task == "nearest_static":
            d = k % spec.n_dynamic
            dists = _track_static_dists(world, d).min(axis=0)
            answer = int(np.argmin(dists))
            candidates, gt_index = _candidate_row(
                STATIC_TOKEN_BASE + answer, _static_token_pool(world, answer), rng
            )
            question = (TASK_TOKENS[task], DYNAMIC_TOKEN_BASE + d)
            derivations.append(
                {"task": task, "dynamic": d, "min_distances": [float(x) for x in dists],
                 "answer_object": answer}
            )
        elif task == "visited_order":
            d = k % spec.n_dynamic
            dists = _track_static_dists(world, d)
            reach_frames = [
                int(np.argmax(dists[:, s] < REACH_RADIUS)) if (dists[:, s] < REACH_RADIUS).any() else -1
                for s in range(spec.n_static)
            ]
            reached = [(f, s) for s, f in enumerate(reach_frames) if f >= 0]
            if not reached:
                raise ValidationError(f"dynamic object {d} never reaches a static object")
            answer = min(reached)[1]
            candidates, gt_index = _candidate_row(
                STATIC_TOKEN_BASE + answer, _static_token_pool(world, answer), rng
            )
            question = (TASK_TOKENS[task], DYNAMIC_TOKEN_BASE + d)
            derivations.append(
                {"task": task, "dynamic": d, "reach_frames": reach_frames, "answer_object": answer}
            )
        else:
            s = int(rng.integers(spec.n_static))
            entered = [
                bool(_track_static_dists(world, d)[:, s].min() < COUNT_RADIUS)
                for d in range(spec.n_dynamic)
            ]
            count = sum(entered)
            pool = [COUNT_TOKEN_BASE + c for c in range(spec.n_dynamic + 1) if c != count]
            candidates, gt_index = _candidate_row(COUNT_TOKEN_BASE + count, pool, rng)
            question = (TASK_TOKENS[task], STATIC_TOKEN_BASE + s)
            derivations.append(
                {"task": task, "static": s, "entered": entered, "answer_count": count}
            )
        instances.append(
            QaInstance(
                video_id=spec.video_id,
                question=question,
                candidates=candidates,
                gt_index=gt_index,
            )
        )
    return instances, derivations
