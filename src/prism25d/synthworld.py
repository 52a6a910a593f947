"""Deterministic synthetic 3D worlds with projected detections and QA tasks."""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import DYNAMIC, STATIC, ClassEntry, ClassRegistry
from .lift import Intrinsics, default_intrinsics, norms
from .qa import QaInstance

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
MAX_ATTEMPTS = 60  # layouts sampled before a spec counts as infeasible
IMAGE_MARGIN = 2.0  # pixels every noiseless box keeps from the image border


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


@dataclass
class World:
    spec: WorldSpec
    static_positions: np.ndarray  # (S, 3) world coordinates
    static_classes: list[int]
    static_features: np.ndarray  # (S, d_o)
    dynamic_tracks: np.ndarray  # (D, F, 3)
    dynamic_classes: list[int]
    dynamic_features: np.ndarray  # (D, d_o)
    dynamic_targets: list[list[int]]  # per object, static indices its path visits
    camera_rotations: np.ndarray  # (F, 3, 3) world-from-camera rotation per frame
    camera_centers: np.ndarray  # (F, 3)
    boxes: np.ndarray  # (F, S + D, 4) noiseless boxes, statics first
    depths: np.ndarray  # (F, S + D)


@dataclass
class GroundTruth:
    video_id: str
    detection_to_object: dict[int, int]  # static detection id -> world object id
    rotations: np.ndarray  # (F, 3, 3) frame-k camera coordinates -> frame-0 coordinates,
    translations: np.ndarray  # (F, 3) as p -> R_k @ p + t_k
    static_positions: np.ndarray
    dynamic_tracks: np.ndarray
    qa: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "video_id": self.video_id,
            "detection_to_object": {str(k): v for k, v in self.detection_to_object.items()},
            "poses": [{"rotation": r.tolist(), "translation": t.tolist()}
                      for r, t in zip(self.rotations, self.translations)],
            "static_positions": [[float(x) for x in p] for p in self.static_positions],
            "dynamic_tracks": [[[float(x) for x in p] for p in track] for track in self.dynamic_tracks],
            "qa": self.qa,
        }


def _rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _camera_track(spec: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    base = np.array([0.0, 0.0, -spec.view_distance])
    if spec.camera.kind == "orbiting":
        rotations = np.stack([_rot_y(spec.camera.angular_rate * t) for t in range(spec.n_frames)])
        return rotations, rotations @ base
    rotations = np.broadcast_to(np.eye(3), (spec.n_frames, 3, 3))
    if spec.camera.kind == "stationary":
        return rotations, np.broadcast_to(base, (spec.n_frames, 3))
    velocity = np.asarray(spec.camera.velocity, dtype=np.float64)
    return rotations, base + np.arange(spec.n_frames)[:, None] * velocity


def _project(
    points: np.ndarray, extents: np.ndarray, rotations: np.ndarray, centers: np.ndarray,
    intr: Intrinsics,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Boxes (F, N, 4) and depths (F, N) of N objects at `points` (F, N, 3) seen from F
    camera poses, or None when an object is behind or too close to the camera."""
    cam = (points - centers[:, None]) @ rotations
    z = cam[..., 2]
    if (z <= 0.5).any():
        return None
    u = intr.fx * cam[..., 0] / z + intr.cx
    v = intr.fy * cam[..., 1] / z + intr.cy
    hw = intr.fx * (extents[:, 0] / 2.0) / z
    hh = intr.fy * (extents[:, 1] / 2.0) / z
    return np.stack([u - hw, v - hh, u + hw, v + hh], axis=-1), z


def _in_image(boxes: np.ndarray, spec: WorldSpec) -> bool:
    far = np.asarray(spec.image_size) - IMAGE_MARGIN
    return bool((boxes[..., :2] >= IMAGE_MARGIN).all() and (boxes[..., 2:] <= far).all())


def _overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a box of `a` (F, 4) overlaps a box of `b` (F, 4), over every frame pair."""
    a, b = a[:, None], b[None]
    disjoint = ((a[..., 2] <= b[..., 0]) | (b[..., 2] <= a[..., 0])
                | (a[..., 3] <= b[..., 1]) | (b[..., 3] <= a[..., 1]))
    return not disjoint.all()


def _placement_box(spec: WorldSpec) -> np.ndarray:
    half = np.array([1.4, 0.9, 1.2])
    if spec.camera.kind == "translating":
        travel = np.abs(np.asarray(spec.camera.velocity)) * (spec.n_frames - 1)
        half = np.maximum(half - travel, 0.3)
    elif spec.camera.kind == "orbiting":
        swing = abs(spec.camera.angular_rate) * (spec.n_frames - 1) * 2.2
        half = np.maximum(half - np.array([swing, 0.0, swing]), 0.3)
    return half


def _uniform(rng: np.random.Generator, half: np.ndarray, shape) -> np.ndarray:
    """`rng.uniform(-half, half, shape)` bit for bit, scaled as Generator.uniform scales
    `rng.random`'s draws, at a fraction of its call cost."""
    return -half + (half - -half) * rng.random(shape)


def _sample_static_layout(spec: WorldSpec, rng: np.random.Generator) -> np.ndarray | None:
    """Each static object at the first of 80 uniform candidates `static_separation` or more
    from every one placed before it, or None. One block per layout attempt holds every
    object's candidates: each object's 80 are the rows after those its predecessors took.
    The stream is then rewound and redrawn by the rows taken, 80 for an object none of whose
    candidates passes, so it stands where a one-at-a-time draw leaves it."""
    half = _placement_box(spec)
    state = rng.bit_generator.state  # a restore keeps the buffered 32-bit half; advance() clears it
    candidates = _uniform(rng, half, (80 * spec.n_static, 3))
    pts, taken = np.empty((spec.n_static, 3)), 0
    for i in range(spec.n_static):
        window = candidates[taken:taken + 80]
        far = (norms(window[:, None] - pts[:i]) >= spec.static_separation).all(axis=1)
        if not far.any():
            pts, taken = None, taken + 80
            break
        j = int(far.argmax())
        pts[i] = window[j]
        taken += j + 1
    rng.bit_generator.state = state
    rng.random((taken, 3))
    return pts


def _near(rng: np.random.Generator, point: np.ndarray, spec: WorldSpec) -> np.ndarray:
    """`point` moved a uniform `pass_distance` along a normal-drawn unit direction."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return point + direction * rng.uniform(*spec.pass_distance)


def _sample_trajectory(
    spec: WorldSpec,
    rng: np.random.Generator,
    statics: np.ndarray,
    targets: list[int],
) -> np.ndarray | None:
    half = _placement_box(spec)
    bound = half + 0.4
    aims = targets * 2 if len(targets) == 1 else targets  # single-target paths dwell near the target
    knots = np.linspace(0.0, 1.0, 1 + len(aims))
    s = np.linspace(0.0, 1.0, spec.n_frames)
    others = [i for i in range(len(statics)) if i not in targets]
    for _ in range(40):
        if spec.n_frames == 1:
            start = _near(rng, statics[targets[0]], spec)
        else:
            start = _uniform(rng, half, 3)
            if norms(start - statics).min() < 0.8:
                continue
        waypoints = [start]
        for tgt in aims:
            wp = _near(rng, statics[tgt], spec)
            if np.any(np.abs(wp) > bound):
                break
            waypoints.append(wp)
        if len(waypoints) <= len(aims):  # a waypoint fell out of bounds
            continue
        track = np.stack(
            [np.interp(s, knots, [w[a] for w in waypoints]) for a in range(3)], axis=1
        )

        dists = np.linalg.norm(track[:, None, :] - statics[None, :, :], axis=2)  # (F, S)
        min_per_static = dists.min(axis=0)
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


def build_world(spec: WorldSpec) -> World:
    """Sample a world satisfying every visibility and separation constraint.

    Re-samples from the seeded stream until the constraints hold, so the
    result is a pure function of the spec; raises once attempts run out.
    """
    rng = np.random.default_rng(spec.seed)
    rotations, centers = _camera_track(spec)
    intr = spec.intrinsics()
    static_classes = [STATIC_CLASS_BASE + i % spec.n_static_classes for i in range(spec.n_static)]
    same_class = [(i, j) for i in range(spec.n_static) for j in range(i + 1, spec.n_static)
                  if static_classes[i] == static_classes[j]]

    for _ in range(MAX_ATTEMPTS):
        statics = _sample_static_layout(spec, rng)
        if statics is None:
            continue
        static_sizes = rng.uniform(*spec.extent_range, size=(spec.n_static, 2))

        tracks, target_lists = [], []
        for _ in range(spec.n_dynamic):
            targets = [int(t) for t in rng.choice(
                spec.n_static, size=min(spec.traj_targets, spec.n_static), replace=False)]
            track = _sample_trajectory(spec, rng, statics, targets)
            if track is None:
                break
            tracks.append(track)
            target_lists.append(targets)
        if len(tracks) < spec.n_dynamic:
            continue
        dynamic_tracks = (
            np.stack(tracks) if tracks else np.zeros((0, spec.n_frames, 3))
        )
        dynamic_sizes = rng.uniform(*spec.extent_range, size=(spec.n_dynamic, 2))

        # visibility of everything in every frame, on noiseless projections
        points = np.concatenate([np.broadcast_to(statics, (spec.n_frames, *statics.shape)),
                                 dynamic_tracks.transpose(1, 0, 2)], axis=1)
        projection = _project(points, np.concatenate([static_sizes, dynamic_sizes]),
                              rotations, centers, intr)
        if projection is None or not _in_image(projection[0], spec):
            continue
        # same-class static boxes must never overlap, in any frame pair, so the
        # merge criterion cannot cross objects at any IoU threshold
        boxes, depths = projection
        if any(_overlap(boxes[:, i], boxes[:, j]) for i, j in same_class):
            continue

        return World(
            spec=spec,
            static_positions=statics,
            static_classes=static_classes,
            static_features=np.eye(spec.n_static, spec.d_o),
            dynamic_tracks=dynamic_tracks,
            dynamic_classes=[
                DYNAMIC_CLASS_BASE + j % spec.n_dynamic_classes for j in range(spec.n_dynamic)
            ],
            dynamic_features=np.eye(spec.n_dynamic, spec.d_o, k=spec.d_o // 2),
            dynamic_targets=target_lists,
            camera_rotations=rotations,
            camera_centers=centers,
            boxes=boxes,
            depths=depths,
        )
    raise ValidationError(f"could not satisfy world constraints for seed {spec.seed}")


def world_truth(world: World) -> GroundTruth:
    spec = world.spec
    per_frame = spec.n_static + spec.n_dynamic
    det_to_obj = {t * per_frame + i: i for t in range(spec.n_frames) for i in range(spec.n_static)}
    r0, c0 = world.camera_rotations[0], world.camera_centers[0]
    return GroundTruth(
        video_id=spec.video_id,
        detection_to_object=det_to_obj,
        rotations=np.array([r0.T @ rk for rk in world.camera_rotations]),
        translations=np.array([r0.T @ (ck - c0) for ck in world.camera_centers]),
        static_positions=world.static_positions,
        dynamic_tracks=world.dynamic_tracks,
    )


def world_detections(world: World) -> list[dict]:
    """Noiseless projection plus seeded post-projection jitter, frame-major order. Every
    record holds its own lists."""
    spec = world.spec
    noise = spec.noise
    boxes, depths = world.boxes, world.depths
    # per object, frame-major: 4 box draws, then 1 depth draw, each while its noise is on
    sigmas = [noise.bbox_px] * 4 * (noise.bbox_px > 0) + [noise.depth] * (noise.depth > 0)
    draws = np.random.default_rng([spec.seed, 7]).standard_normal((*depths.shape, len(sigmas)))
    with np.errstate(over="ignore"):  # an infinite jitter is left to write_detections to reject
        jitter = np.asarray(sigmas) * draws
    if noise.bbox_px > 0:
        boxes = boxes + jitter[..., :4]
        for lo, hi in ((0, 2), (1, 3)):  # keep each side at least 1e-6 long
            least = boxes[..., lo] + 1e-6
            boxes[..., hi] = np.where(least > boxes[..., hi], least, boxes[..., hi])
    if noise.depth > 0:
        depths = depths + jitter[..., -1]
        depths = np.where(0.05 > depths, 0.05, depths)
    classes = world.static_classes + world.dynamic_classes
    features = np.concatenate([world.static_features, world.dynamic_features])
    # motion: the step into each frame (frame 0 takes frame 1's, a lone frame none), its length
    motion = np.zeros((spec.n_frames, spec.n_dynamic, spec.d_a))
    if spec.n_frames > 1:
        step = np.diff(world.dynamic_tracks.transpose(1, 0, 2), axis=0)
        motion[..., :3] = np.concatenate([step[:1], step])
    motion[..., 3] = norms(motion[..., :3])
    boxes, depths, motion = boxes.tolist(), depths.tolist(), motion.tolist()
    features = np.broadcast_to(features, (spec.n_frames, *features.shape)).tolist()
    records = []
    for t in range(spec.n_frames):
        for n, cls in enumerate(classes):
            records.append(
                {
                    "video_id": spec.video_id,
                    "frame_index": t,
                    "class_id": cls,
                    "bbox": boxes[t][n],
                    "depth": depths[t][n],
                    "feature": features[t][n],
                    "motion_feature": None if n < spec.n_static else motion[t][n - spec.n_static],
                }
            )
    return records


def _line(encode, rec: dict) -> str:
    """A detection record's JSONL line; a non-finite number is a validation error naming
    the record's video, frame and field."""
    try:
        return encode(rec) + "\n"
    except ValueError:  # noise can push a box or depth beyond the float range
        field = next(key for key, value in rec.items() if _refused(encode, value))
        raise ValidationError(f"video {rec['video_id']!r}, frame {rec['frame_index']}: "
                              f"detection holds a non-finite number in {field}") from None


def _refused(encode, value) -> bool:
    try:
        encode(value)
    except ValueError:
        return True
    return False


def _unnamed_file(path: str | Path):
    """A file for the lines bound for `path`: beside it, so they sit on the target's file
    system and not on a temp dir that may be held in memory, or in the default temp dir
    when `path`'s directory cannot be written (a target such as /dev/stdout)."""
    try:
        return tempfile.TemporaryFile("w+", encoding="utf-8", dir=Path(path).parent)
    except OSError:
        return tempfile.TemporaryFile("w+", encoding="utf-8")


def write_detections(records: Iterable[dict], path: str | Path) -> None:
    """Write detection records as JSONL, each line as soon as it is encoded. The lines go
    to an unnamed file (see `_unnamed_file`) and are copied to `path` once every record is
    written, so a refused record (see `_line`) leaves a file at `path` as it was."""
    encode = json.JSONEncoder(allow_nan=False).encode  # one encoder for every line
    with _unnamed_file(path) as tmp:
        for rec in records:
            tmp.write(_line(encode, rec))
        tmp.seek(0)
        with open(path, "w", encoding="utf-8") as fh:
            shutil.copyfileobj(tmp, fh)


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
    if n_instances < 1:
        raise ValidationError(f"QA instances per world must be at least 1, got {n_instances}")
    if seed < 0:
        raise ValidationError(f"QA seed must not be negative, got {seed}")
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
        if task == "count_dynamic":
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
        else:
            d = k % spec.n_dynamic
            dists = _track_static_dists(world, d)
            derivation = {"task": task, "dynamic": d}
            if task == "nearest_static":
                nearest = dists.min(axis=0)
                answer = int(np.argmin(nearest))
                derivation["min_distances"] = [float(x) for x in nearest]
            else:
                reach = dists < REACH_RADIUS
                reach_frames = [int(np.argmax(r)) if r.any() else -1 for r in reach.T]
                reached = [(f, s) for s, f in enumerate(reach_frames) if f >= 0]
                if not reached:
                    raise ValidationError(f"dynamic object {d} never reaches a static object")
                answer = min(reached)[1]
                derivation["reach_frames"] = reach_frames
            derivation["answer_object"] = answer
            derivations.append(derivation)
            candidates, gt_index = _candidate_row(
                STATIC_TOKEN_BASE + answer, _static_token_pool(world, answer), rng
            )
            question = (TASK_TOKENS[task], DYNAMIC_TOKEN_BASE + d)
        instances.append(
            QaInstance(
                video_id=spec.video_id,
                question=question,
                candidates=candidates,
                gt_index=gt_index,
            )
        )
    return instances, derivations
