"""The benchmark's workloads: inputs made from a seed, the commands of one round, checks.

Every workload builds synthetic worlds with `prism25d.synthworld`, writes the
files a user would hand to the `prism25d` command, and lists the commands of
one timed round. Its checks run after the timed phase and compare the
command outputs against the worlds' ground truth, or against computations
written here apart from the program; never against a stored copy of earlier
output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from prism25d import numcore as nc
from prism25d import synthworld as sw
from prism25d.compact import MatchParams, compact
from prism25d.errors import ValidationError
from prism25d.graph import ClassRegistry, load_detection_groups
from prism25d.qa import (
    ModelConfig,
    batch_forward,
    build_bundles,
    init_model,
    load_model,
    load_qa,
    save_model,
    save_qa,
)
from prism25d.register import register_frames

import reference

# The camera cycles through these, one video each. Faster cameras than these
# leave most 16-frame seeds unbuildable (objects leave the image).
CAMERAS = (
    sw.CameraSpec(),
    sw.CameraSpec(kind="translating", velocity=(0.015, 0.005, 0.005)),
    sw.CameraSpec(kind="orbiting", angular_rate=0.005),
)
GAMMA = 0.5  # the CLI's merge threshold default, also used by the checks
DELTA = 3


@dataclass
class Op:
    argv: list[str]
    sample: int  # ops of one round with the same sample index are timed together
    items: int  # work items the op carries through the program


@dataclass
class Prepared:
    """What a set-up leaves behind: the round's commands and the truth the checks need."""

    ops: list[Op]
    skipped_seeds: int
    truth: dict = field(default_factory=dict)


def build_worlds(first_seed: int, specs) -> tuple[list[sw.World], int]:
    """Build one world per spec template, seeds counting up from `first_seed`.

    `specs` holds WorldSpec templates; each takes the next seed. A seed for
    which `build_world` cannot meet the constraints is skipped, and the next
    one is tried, so the result depends on `first_seed` alone.
    """
    worlds, seed, skipped = [], first_seed, 0
    for template in specs:
        while True:
            spec = replace(template, seed=seed)
            seed += 1
            try:
                worlds.append(sw.build_world(spec))
                break
            except ValidationError:
                skipped += 1
    return worlds, skipped


def _write_detections(worlds, path: Path) -> int:
    records = [rec for w in worlds for rec in sw.world_detections(w)]
    sw.write_detections(records, path)
    return len(records)


def _camera0(world: sw.World, points: np.ndarray) -> np.ndarray:
    """World points expressed in frame 0's camera coordinates."""
    rot, center = world.camera_rotations[0], world.camera_centers[0]
    return (np.asarray(points) - center) @ rot


def _strict_json(path: Path, failures: list[str]):
    """Parse a JSON file, recording every NaN or Infinity it holds as a failure."""

    def flag(token):
        failures.append(f"{path.name}: non-finite number {token}")
        return float("nan")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=flag)


# ---------------------------------------------------------------------------
# graphs: ingest + compact, no model


@dataclass
class Graphs:
    """Detection corpus in chunk files; per chunk, `ingest` then `compact --stats`."""

    chunks: int = 8
    videos_per_chunk: int = 12
    n_frames: ClassVar[int] = 16
    n_static: ClassVar[int] = 6
    n_dynamic: ClassVar[int] = 2
    name: ClassVar[str] = "graphs"

    def setup(self, work: Path, seed: int) -> Prepared:
        n_videos = self.chunks * self.videos_per_chunk
        specs = [
            sw.WorldSpec(
                seed=0, video_id=f"g{k}", n_frames=self.n_frames, n_static=self.n_static,
                n_dynamic=self.n_dynamic, camera=CAMERAS[k % 3],
                noise=sw.NoiseSpec(bbox_px=1.0 if (k // 3) % 2 else 0.0),
            )
            for k in range(n_videos)
        ]
        worlds, skipped = build_worlds(1_000_000 + 10_000 * seed, specs)
        registry = work / "registry.json"
        sw.default_registry().save(registry)
        ops, chunks = [], []
        for c in range(self.chunks):
            part = worlds[c * self.videos_per_chunk : (c + 1) * self.videos_per_chunk]
            det = work / f"det-{c}.jsonl"
            count = _write_detections(part, det)
            graphs, compacted = work / f"graphs-{c}.json", work / f"compact-{c}.json"
            stats = work / f"stats-{c}.json"
            ops.append(Op(["ingest", "--in", str(det), "--registry", str(registry),
                           "--out", str(graphs)], sample=c, items=count))
            ops.append(Op(["compact", "--in", str(graphs), "--out", str(compacted),
                           "--stats", str(stats)], sample=c, items=0))
            videos = [
                {"world": w, "oracle": sw.oracle_merge([], sw.world_truth(w)),
                 "jittered": w.spec.noise.bbox_px > 0}
                for w in part
            ]
            chunks.append({"graphs": graphs, "compacted": compacted, "stats": stats,
                           "videos": videos})
        return Prepared(ops, skipped, {"chunks": chunks})

    def check(self, prep: Prepared) -> list[str]:
        failures: list[str] = []
        hits = total = 0
        for chunk in prep.truth["chunks"]:
            before = _strict_json(chunk["graphs"], failures)
            after = _strict_json(chunk["compacted"], failures)
            stats = _strict_json(chunk["stats"], failures)
            videos = chunk["videos"]
            ids = [v["world"].spec.video_id for v in videos]
            if [g["video_id"] for g in before["graphs"]] != ids or [
                g["video_id"] for g in after["graphs"]
            ] != ids:
                failures.append(f"{chunk['compacted'].name}: videos differ from the corpus")
                continue
            for video, gb, ga in zip(videos, before["graphs"], after["graphs"]):
                h, t = self._check_video(video, gb, ga, failures)
                hits, total = hits + h, total + t
            full = sum(len(g["nodes"]) for g in before["graphs"])
            kept = sum(len(g["nodes"]) for g in after["graphs"])
            recount = 100.0 * (1.0 - kept / full)
            if stats.get("videos") != len(videos) or not abs(
                stats.get("reduction_pct", math.inf) - recount
            ) <= 1e-9:
                failures.append(
                    f"{chunk['stats'].name}: reduction_pct {stats.get('reduction_pct')} "
                    f"over {stats.get('videos')} videos; recount gives {recount} over {len(videos)}"
                )
        if total and hits / total < 0.95:
            failures.append(f"merge purity {hits / total:.4f} on jittered videos is below 0.95")
        return failures

    def _check_video(self, video: dict, before: dict, after: dict, failures: list[str]):
        """Checks one video; returns (pure, total) static detections when it is jittered."""
        world, vid = video["world"], video["world"].spec.video_id
        per_frame = self.n_static + self.n_dynamic
        oracle = {frozenset(dets) for dets in video["oracle"].values()}
        static_dets = {d for dets in oracle for d in dets}

        # detection id -> compacted node id, frame by frame; merge_static keeps
        # each frame's node order, so positions line up unless a frame collapsed
        root = {}
        for fb, fa in zip(before["frames"], after["frames"]):
            if fb["frame_index"] != fa["frame_index"] or len(fb["node_ids"]) != len(fa["node_ids"]):
                root = None
                break
            root.update(zip(fb["node_ids"], fa["node_ids"]))
        classes: dict[int, set] = {}
        for det in static_dets if root is not None else ():
            classes.setdefault(root[det], set()).add(det)
        got = {frozenset(c) for c in classes.values()}

        if video["jittered"]:
            cls_of = {d: c for c in got for d in c}
            pure = sum(1 for c in oracle for d in c if cls_of.get(d) == c)
            return pure, len(static_dets)

        if got != oracle:
            failures.append(f"{vid}: merge classes differ from synthworld.oracle_merge")
        want_nodes = self.n_static + self.n_dynamic * self.n_frames
        if len(after["nodes"]) != want_nodes or len(after["static_nodes"]) != self.n_static:
            failures.append(
                f"{vid}: {len(after['nodes'])} compacted nodes ({len(after['static_nodes'])} "
                f"static), want {want_nodes} ({self.n_static} static)"
            )
        statics = _camera0(world, world.static_positions)

        def truth(det: int) -> np.ndarray:
            frame, slot = divmod(det, per_frame)
            if slot < self.n_static:
                return statics[slot]
            return _camera0(world, world.dynamic_tracks[slot - self.n_static, frame])

        for label, graph in (("registered", before), ("compacted", after)):
            for node in graph["nodes"]:
                det = node["node_id"]
                if node["source_frames"][0] != det // per_frame:
                    failures.append(f"{vid}: {label} node {det} is not first seen in frame {det // per_frame}")
                    break
                if not np.abs(np.asarray(node["centroid3d"]) - truth(det)).max() <= 1e-6:
                    failures.append(f"{vid}: {label} centroid of node {det} is off the truth")
                    break
        return 0, 0


# ---------------------------------------------------------------------------
# train: the c7 corpus and configuration for a fixed number of epochs


@dataclass
class Train:
    """`train --val` on 125 training and 25 held-out 8-frame worlds."""

    train_worlds: int = 125
    val_worlds: int = 25
    # The loss sits at chance (about 4.17) for the first 3-8 epochs and then
    # drops to about 3.5. Fewer epochs would leave "last loss below the first"
    # to plateau noise; 12 clear the latest drop seen over 27 seeds.
    epochs: int = 12
    questions: ClassVar[int] = 4
    batch: ClassVar[int] = 16
    grad_step: ClassVar[float] = 1e-5
    name: ClassVar[str] = "train"

    def setup(self, work: Path, seed: int) -> Prepared:
        base = 2_000_000 + 10_000 * seed
        template = sw.WorldSpec(seed=0, video_id="", n_frames=8, n_static=6, n_dynamic=2)
        train_specs = [replace(template, video_id=f"t{k}") for k in range(self.train_worlds)]
        val_specs = [replace(template, video_id=f"v{k}") for k in range(self.val_worlds)]
        train_w, skipped_t = build_worlds(base, train_specs)
        val_w, skipped_v = build_worlds(base + 5_000, val_specs)
        registry, det = work / "registry.json", work / "detections.jsonl"
        sw.default_registry().save(registry)
        _write_detections(train_w + val_w, det)
        qa_files = {}
        for split, worlds in (("train", train_w), ("val", val_w)):
            instances = []
            for w in worlds:
                instances += sw.generate_qa(w, sw.world_truth(w), "nearest_static", self.questions, 5)[0]
            qa_files[split] = work / f"qa-{split}.jsonl"
            save_qa(instances, qa_files[split])
        n_train = self.train_worlds * self.questions
        ckpt, metrics = work / "model.ckpt", work / "metrics.json"
        argv = [
            "train", "--detections", str(det), "--registry", str(registry),
            "--qa", str(qa_files["train"]), "--val", str(qa_files["val"]),
            "--out", str(ckpt), "--metrics", str(metrics),
            "--lr", "2e-3", "--batch", str(self.batch), "--latent", "32", "--heads", "4",
            "--epochs", str(self.epochs), "--seed", str(seed),
        ]
        return Prepared(
            [Op(argv, sample=0, items=self.epochs * n_train)],
            skipped_t + skipped_v,
            {"ckpt": ckpt, "metrics": metrics, "det": det, "registry": registry,
             "qa": qa_files["train"], "n_train": n_train, "seed": seed},
        )

    def check(self, prep: Prepared) -> list[str]:
        failures: list[str] = []
        truth = prep.truth
        metrics = _strict_json(truth["metrics"], failures)
        losses = [e["train_loss"] for e in metrics["epochs"]]
        if len(losses) != self.epochs or not all(math.isfinite(x) for x in losses):
            failures.append(f"epoch losses {losses}: want {self.epochs} finite values")
        elif not losses[-1] < losses[0]:
            failures.append(f"last epoch loss {losses[-1]} is not below the first {losses[0]}")

        model, header = load_model(truth["ckpt"])
        want_steps = self.epochs * math.ceil(truth["n_train"] / self.batch)
        if header["step"] != want_steps or metrics["steps"] != want_steps:
            failures.append(
                f"step count {header['step']} (metrics {metrics['steps']}), want {want_steps}"
            )
        resaved = truth["ckpt"].with_name("model-resaved.ckpt")
        save_model(resaved, model, seed=header["seed"], step=header["step"])
        if resaved.read_bytes() != truth["ckpt"].read_bytes():
            failures.append("checkpoint does not re-save byte-identically")

        batch = load_qa(truth["qa"])[: self.batch]
        bundles = _pipeline_bundles(truth["det"], truth["registry"], model)
        worst = self._gradient_error(model, bundles, batch, truth["seed"])
        if not worst < 1e-4:
            failures.append(f"backward gradient differs from central differences by {worst:.2e}")
        return failures

    def _gradient_error(self, model, bundles, batch, seed) -> float:
        """Worst relative error of backward against central differences.

        One coordinate of every parameter tensor, drawn from the seed.
        """

        def loss() -> float:
            return batch_forward(model, bundles, batch)[0].item()

        params = [t for _, t in model.named_parameters()]
        for p in params:
            p.grad = None
        nc.backward(batch_forward(model, bundles, batch)[0])
        rng = np.random.default_rng(seed)
        worst = 0.0
        for p in params:
            idx = np.unravel_index(int(rng.integers(p.data.size)), p.data.shape)
            analytic = 0.0 if p.grad is None else float(p.grad[idx])
            orig = p.data[idx]
            p.data[idx] = orig + self.grad_step
            hi = loss()
            p.data[idx] = orig - self.grad_step
            lo = loss()
            p.data[idx] = orig
            numeric = (hi - lo) / (2.0 * self.grad_step)
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
            worst = max(worst, err)
        return worst


def _pipeline_bundles(det: Path, registry_path: Path, model):
    """The graphs the train command trains on, built through the library calls it makes."""
    params = MatchParams(gamma=GAMMA, delta=DELTA)
    graphs = {
        g.video_id: compact(register_frames(g, gamma=GAMMA), params)
        for g in load_detection_groups(det, ClassRegistry.load(registry_path))
    }
    return build_bundles(graphs, model.config.kernel_config())


# ---------------------------------------------------------------------------
# eval-long: forward only, long videos with many observations per static node


@dataclass
class EvalLong:
    """`eval` of a seeded checkpoint over chunks of 24-frame videos."""

    chunks: int = 8
    videos_per_chunk: int = 12
    n_frames: ClassVar[int] = 24
    questions: ClassVar[int] = 2
    name: ClassVar[str] = "eval-long"

    def setup(self, work: Path, seed: int) -> Prepared:
        specs = [
            sw.WorldSpec(seed=0, video_id=f"e{k}", n_frames=self.n_frames, n_static=6, n_dynamic=3)
            for k in range(self.chunks * self.videos_per_chunk)
        ]
        worlds, skipped = build_worlds(3_000_000 + 10_000 * seed, specs)
        registry, ckpt = work / "registry.json", work / "model.ckpt"
        sw.default_registry().save(registry)
        config = ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE)
        save_model(ckpt, init_model(config, seed), seed=seed, step=0)
        ops, chunks = [], []
        for c in range(self.chunks):
            part = worlds[c * self.videos_per_chunk : (c + 1) * self.videos_per_chunk]
            det, qa, out = work / f"det-{c}.jsonl", work / f"qa-{c}.jsonl", work / f"eval-{c}.json"
            _write_detections(part, det)
            instances = []
            for w in part:
                instances += sw.generate_qa(w, sw.world_truth(w), "nearest_static", self.questions, 0)[0]
            save_qa(instances, qa)
            ops.append(Op(["eval", "--detections", str(det), "--registry", str(registry),
                           "--qa", str(qa), "--model", str(ckpt), "--out", str(out)],
                          sample=c, items=len(instances)))
            chunks.append({"worlds": part, "qa": qa, "out": out})
        return Prepared(ops, skipped, {"chunks": chunks, "ckpt": ckpt})

    def check(self, prep: Prepared) -> list[str]:
        failures: list[str] = []
        model = reference.read_checkpoint(prep.truth["ckpt"])
        for chunk in prep.truth["chunks"]:
            got = _strict_json(chunk["out"], failures)
            graphs = {w.spec.video_id: reference.true_graph(w, self.n_frames) for w in chunk["worlds"]}
            want = reference.evaluate(model, graphs, reference.read_qa(chunk["qa"]))
            for key in ("accuracy", "mean_rank"):
                if not abs(got.get(key, math.inf) - want[key]) <= 1e-12:
                    failures.append(
                        f"{chunk['out'].name}: {key} {got.get(key)}, reference forward gives {want[key]}"
                    )
        return failures


WORKLOADS = {w.name: w for w in (Graphs(), Train(), EvalLong())}
