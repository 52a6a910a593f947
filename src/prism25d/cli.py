"""prism25d command line: synth, ingest, compact, train, eval."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .compact import MatchParams, compact, corpus_stats
from .errors import ParseError, PrismError, ValidationError, located
from .graph import (DEFAULT_INTRINSICS, ClassRegistry, SceneGraph25D, _check_max_frames, load_corpus,
                    load_detection_groups, save_corpus)
from .lift import Intrinsics
from .qa import (
    METRICS_FORMAT,
    METRICS_VERSION,
    ModelConfig,
    TrainConfig,
    evaluate,
    load_model,
    load_qa,
    save_model,
    save_qa,
    train,
)
from .register import register_graphs
from .schema import OBJECT, check, list_of, read, read_json
from . import synthworld

STATS_FORMAT = "prism25d-stats"
STATS_VERSION = 1
_QA_DEFAULTS = {"task": "nearest_static", "qa_per_world": 4, "qa_seed": 0}  # with --out-qa only


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit-1 JSON errors."""

    def error(self, message):
        print(json.dumps({"error": "usage", "message": message}), file=sys.stderr)
        raise SystemExit(1)


def _emit_error(kind: str, exc: BaseException) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


def _write_json(obj: dict, path: str) -> None:
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _sigma_list(text: str) -> tuple[float, ...]:
    """Comma-separated numbers; an empty item is an error, not a level fewer."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad bandwidth list {text!r}: every item must be a number") from exc


@dataclass
class RunConfig:
    """Defaults for every tunable; config file values lose to explicit flags."""

    gamma: float = MatchParams.gamma  # the merge threshold is CLI-tuned
    delta: int = MatchParams.delta
    sigmas: tuple[float, ...] = ModelConfig.sigma_s
    sigma_t: tuple[float, ...] | None = ModelConfig.sigma_t  # None keeps sigma_t = sigma_s
    heads: int = ModelConfig.heads
    latent: int = ModelConfig.latent_dim  # desk-scale width; reference models ran 128-256
    lr: float = TrainConfig.lr  # desk-scale runs often want 2e-3
    batch: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    seed: int = TrainConfig.seed
    vocab: int = synthworld.VOCAB_SIZE
    standard_layers: int = ModelConfig.n_standard_layers  # stacked plain-attention blocks in the encoder
    combine: bool = ModelConfig.combine
    max_frames: int | None = None
    fx: float | None = None
    fy: float | None = None
    cx: float | None = None
    cy: float | None = None

    @staticmethod
    def resolve(args) -> "RunConfig":
        file_values = read_json(args.config) if getattr(args, "config", None) else {}
        cfg = read(RunConfig, file_values, partial=True)
        for key in vars(cfg):
            flag = getattr(args, key, None)
            if flag is not None:
                setattr(cfg, key, flag)
        return cfg

    def intrinsics(self) -> Intrinsics:
        given = [self.fx, self.fy, self.cx, self.cy]
        if all(v is None for v in given):
            return DEFAULT_INTRINSICS
        if any(v is None for v in given):
            raise ParseError("intrinsics need all of --fx --fy --cx --cy")
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr=self.lr, batch_size=self.batch, epochs=self.epochs, seed=self.seed)


def _pipeline_graphs(
    detections: str, registry: str, config: ModelConfig, videos: set[str] | None = None
) -> dict[str, SceneGraph25D]:
    """ingest -> register -> compact by the pipeline that `config` records, for every video in
    the file, or only those of `videos` when given (every line is still read and checked); a
    registry other than its recorded one is a ValidationError."""
    classes = ClassRegistry.load(registry)
    if config.registry_digest not in (None, classes.digest()):
        raise ValidationError(f"registry {registry} is not the one the checkpoint was trained with")
    graphs = load_detection_groups(detections, classes, config.max_frames, config.intrinsics)
    kept = [g for g in graphs if videos is None or g.video_id in videos]
    return {g.video_id: compact(g, config.match) for g in register_graphs(kept, config.match.gamma)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    given = {key: value for key in _QA_DEFAULTS if (value := getattr(args, key)) is not None}
    if given and not args.out_qa:
        flags = ", ".join("--" + key.replace("_", "-") for key in given)
        args.usage_error(f"{flags} given without --out-qa")
    qa = {**_QA_DEFAULTS, **given}
    obj = read_json(args.spec)  # one world, or {"worlds": [...]}
    if isinstance(obj, dict) and "worlds" in obj:
        check(obj, {"worlds": list_of(OBJECT)})
        if extra := [key for key in obj if key != "worlds"]:
            raise ParseError(f"unknown spec field {extra[0]!r} beside 'worlds'")
        specs, first = [], {}  # first: the index of each video_id's first world
        for i, world in enumerate(obj["worlds"]):
            with located(f"worlds[{i}]"):
                spec = read(synthworld.WorldSpec, world, partial=True)
                if (j := first.setdefault(spec.video_id, i)) != i:
                    raise ValidationError(f"video_id {spec.video_id!r} repeats worlds[{j}]")
            specs.append(spec)
    else:
        specs = [read(synthworld.WorldSpec, obj, partial=True)]
    worlds, all_instances, truths = [], [], {}
    for spec in specs:
        world = synthworld.build_world(spec)
        worlds.append(world)
        truth = synthworld.world_truth(world)
        if args.out_qa:
            instances, derivations = synthworld.generate_qa(
                world, truth, qa["task"], qa["qa_per_world"], qa["qa_seed"]
            )
            all_instances.extend(instances)
            truth.qa = derivations
        truths[spec.video_id] = truth.to_json()
    # once every world is built, one world's records at a time; a refused record leaves no file
    synthworld.write_detections((rec for world in worlds for rec in synthworld.world_detections(world)),
                                args.out_detections)
    if args.out_qa:
        save_qa(all_instances, args.out_qa)
    if args.out_truth:
        _write_json({"format": "prism25d-truth", "version": 1, "videos": truths}, args.out_truth)
    if args.out_registry:
        synthworld.default_registry().save(args.out_registry)
    print(f"generated {len(specs)} worlds -> {args.out_detections}")
    return 0


def cmd_ingest(args) -> int:
    cfg = RunConfig.resolve(args)
    match = None if args.no_register else MatchParams(gamma=cfg.gamma)  # the knobs, before any input
    intrinsics = cfg.intrinsics()
    _check_max_frames(cfg.max_frames)
    graphs = load_detection_groups(args.inp, ClassRegistry.load(args.registry), cfg.max_frames, intrinsics)
    if match is not None:
        graphs = register_graphs(graphs, gamma=match.gamma)
    save_corpus(graphs, args.out)
    print(f"ingested {len(graphs)} videos -> {args.out}")
    return 0


def cmd_compact(args) -> int:
    cfg = RunConfig.resolve(args)
    params = MatchParams(gamma=cfg.gamma, delta=cfg.delta)
    before = load_corpus(args.inp)
    after = [compact(g, params) for g in before]
    save_corpus(after, args.out)
    stats = corpus_stats(list(zip(before, after)))
    if args.stats:
        _write_json({"format": STATS_FORMAT, "version": STATS_VERSION, **stats}, args.stats)
    print(
        f"compacted {stats['videos']} videos: {stats['full']:.2f} -> "
        f"{stats['static'] + stats['dynamic']:.2f} nodes/video "
        f"({stats['reduction_pct']:.1f}% reduction)"
    )
    return 0


def _inferred(graphs: dict[str, SceneGraph25D]) -> dict:
    """The ModelConfig fields `train` takes from its graphs: the feature and motion widths,
    the frame count their times were scaled by, and their registry's digest."""
    first = next(iter(graphs.values()))
    return dict(d_o=first.features.shape[1],
                d_a=next((g.motions.shape[1] for g in graphs.values() if len(g.motions)), 0),
                max_frames=first.max_frames, registry_digest=first.registry_digest)


def _model_config(cfg: RunConfig) -> ModelConfig:
    """The model and pipeline knobs of `cfg`, range-checked before any input is read; the
    widths are the least ModelConfig takes until `_inferred` replaces them."""
    return ModelConfig(
        d_o=1,
        d_a=0,
        vocab_size=cfg.vocab,
        latent_dim=cfg.latent,
        heads=cfg.heads,
        sigma_s=tuple(cfg.sigmas),
        sigma_t=None if cfg.sigma_t is None else tuple(cfg.sigma_t),
        n_standard_layers=cfg.standard_layers,
        combine=cfg.combine,
        match=MatchParams(gamma=cfg.gamma, delta=cfg.delta),
        intrinsics=cfg.intrinsics(),
        max_frames=cfg.max_frames,
    )


def cmd_train(args) -> int:
    cfg = RunConfig.resolve(args)
    pipeline = _model_config(cfg)
    train_config = cfg.train_config()  # range-checked, as the model knobs are, before any input is read
    train_set = load_qa(args.qa, cfg.vocab)
    val_set = load_qa(args.val, cfg.vocab) if args.val else None
    graphs = _pipeline_graphs(args.detections, args.registry, pipeline)
    model_cfg = replace(pipeline, **_inferred(graphs))
    model, metrics = train(
        train_set,
        graphs,
        model_cfg,
        train_config,
        val_instances=val_set,
    )
    save_model(args.out, model, seed=cfg.seed, step=metrics["steps"])  # refuses a diverged model first
    if args.metrics:
        _write_json(metrics, args.metrics)
    last = metrics["epochs"][-1] if metrics["epochs"] else {}
    summary = f"train_acc={last.get('train_accuracy', 0.0):.3f}"
    if "val_accuracy" in last:
        summary += f" val_acc={last['val_accuracy']:.3f}"
    print(f"trained {cfg.epochs} epochs ({metrics['steps']} steps): {summary}")
    return 0


def cmd_eval(args) -> int:
    model, _header = load_model(args.model)
    instances = load_qa(args.qa, model.config.vocab_size)
    graphs = _pipeline_graphs(args.detections, args.registry, model.config,
                              {inst.video_id for inst in instances})
    result = evaluate(instances, graphs, model)
    if args.out:
        _write_json({"format": METRICS_FORMAT, "version": METRICS_VERSION, **result}, args.out)
    print(f"accuracy={result['accuracy']:.4f} mean_rank={result['mean_rank']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_pipeline_flags(p: _Parser, delta: bool = True, detections: bool = True, gamma=None) -> None:
    """The flags of the pipeline stages a subcommand runs: merging needs `delta`, and
    reading detections the frame count and intrinsics. `--gamma` goes into `gamma`, a
    group of `p`, when one is given."""
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    (gamma or p).add_argument("--gamma", type=float,
                              help=f"IoU merge threshold (artifact default {RunConfig.gamma})")
    if delta:
        p.add_argument("--delta", type=int,
                       help=f"merge look-back window in frames (artifact default {RunConfig.delta})")
    if not detections:
        return
    p.add_argument("--max-frames", dest="max_frames", type=int,
                   help="dataset-wide frame count for temporal normalization")
    p.add_argument("--fx", type=float, help="focal length x, pixels")
    p.add_argument("--fy", type=float, help="focal length y, pixels")
    p.add_argument("--cx", type=float, help="principal point x, pixels")
    p.add_argument("--cy", type=float, help="principal point y, pixels")


def _add_model_flags(p: _Parser) -> None:
    sigmas = ",".join(f"{sigma:g}" for sigma in RunConfig.sigmas)
    p.add_argument("--sigmas", type=_sigma_list,
                   help=f"spatial bandwidth hierarchy, comma-separated (reference default {sigmas})")
    p.add_argument("--sigma-t", dest="sigma_t", type=_sigma_list,
                   help="temporal bandwidths (reference default: equal to --sigmas)")
    p.add_argument("--heads", type=int, help=f"attention heads (reference default {RunConfig.heads})")
    p.add_argument("--latent", type=int, help=f"latent width r (artifact default {RunConfig.latent})")
    p.add_argument("--vocab", type=int, help="token vocabulary size")
    p.add_argument("--standard-layers", dest="standard_layers", type=int,
                   help=f"stacked plain-attention blocks (artifact default {RunConfig.standard_layers})")
    p.add_argument("--no-combine", dest="combine", action="store_false", default=None,
                   help="condition on the hierarchical branch alone, skipping the standard-attention sum")


@functools.cache  # parse_args leaves the parser as it is
def build_parser() -> _Parser:
    parser = _Parser(prog="prism25d", description="(2.5+1)D scene-graph QA pipeline")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic worlds, detections, and QA")
    p.add_argument("--spec", required=True, help="world spec JSON (single object or {'worlds': [...]})")
    p.add_argument("--out-detections", dest="out_detections", required=True)
    p.add_argument("--out-qa", dest="out_qa")
    p.add_argument("--out-truth", dest="out_truth")
    p.add_argument("--out-registry", dest="out_registry")
    p.add_argument("--task", choices=sorted(synthworld.TASK_TOKENS),
                   help="question family, with --out-qa (default nearest_static)")
    p.add_argument("--qa-per-world", dest="qa_per_world", type=int,
                   help="questions per world, with --out-qa (default 4)")
    p.add_argument("--qa-seed", dest="qa_seed", type=int, help="question seed, with --out-qa (default 0)")
    p.set_defaults(func=cmd_synth, usage_error=p.error)

    p = sub.add_parser("ingest", help="load detections, lift to 3D, register frames")
    p.add_argument("--in", dest="inp", required=True, help="detection JSONL file")
    p.add_argument("--registry", required=True, help="class registry JSON")
    p.add_argument("--out", required=True, help="output graph file")
    register = p.add_mutually_exclusive_group()
    register.add_argument("--no-register", dest="no_register", action="store_true",
                          help="skip frame registration (and so take no --gamma)")
    _add_pipeline_flags(p, delta=False, gamma=register)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("compact", help="merge redundant static nodes")
    p.add_argument("--in", dest="inp", required=True, help="graph file from ingest")
    p.add_argument("--out", required=True, help="output compacted graph file")
    p.add_argument("--stats", help="write node-count stats JSON here")
    _add_pipeline_flags(p, detections=False)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("train", help="run the full pipeline and train the QA model")
    p.add_argument("--detections", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--qa", required=True, help="training QA JSONL")
    p.add_argument("--val", help="held-out QA JSONL evaluated each epoch")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--metrics", help="write per-epoch metrics JSON here")
    p.add_argument("--lr", type=float, help=f"Adam learning rate (artifact default {RunConfig.lr:g})")
    p.add_argument("--batch", type=int, help=f"batch size (artifact default {RunConfig.batch})")
    p.add_argument("--epochs", type=int, help=f"training epochs (artifact default {RunConfig.epochs})")
    p.add_argument("--seed", type=int, help=f"run seed (default {RunConfig.seed})")
    _add_pipeline_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a QA dataset")
    p.add_argument("--detections", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--model", required=True, help="checkpoint from train")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow to inf or NaN stays silent: the checks and writers reject non-finite values
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParseError as exc:
        _emit_error("parse", exc)
        return 1
    except PrismError as exc:
        _emit_error("validation", exc)
        return 1
    except OSError as exc:
        _emit_error("io", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
