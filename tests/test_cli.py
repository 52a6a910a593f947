import contextlib
import functools
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import prism25d
from prism25d import cli, schema
from prism25d.cli import main
from prism25d.compact import MatchParams
from prism25d.errors import ParseError, PrismError
from prism25d.graph import DEFAULT_INTRINSICS, graphs_from_records, load_corpus, load_detection_groups
from prism25d.lift import Intrinsics
from prism25d.qa import ModelConfig, TrainConfig, init_model, save_model
from prism25d import synthworld as sw

from helpers import OVERFLOW_DETECTIONS, OVERFLOW_REGISTRY, detection, write_jsonl


def _spec_file(tmp_path, worlds):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"worlds": worlds} if len(worlds) > 1 else worlds[0]))
    return str(path)


def _world_json(seed, **kw):
    obj = asdict(sw.WorldSpec(seed=seed, video_id=f"w{seed}", **kw))
    return obj


def _synth_corpus(tmp_path, n_worlds=4, qa=True, **kw):
    spec = _spec_file(tmp_path, [_world_json(100 + i, **kw) for i in range(n_worlds)])
    det = str(tmp_path / "d.jsonl")
    reg = str(tmp_path / "reg.json")
    args = ["synth", "--spec", spec, "--out-detections", det, "--out-registry", reg]
    if qa:
        args += ["--out-qa", str(tmp_path / "qa.jsonl"), "--qa-per-world", "4"]
    assert main(args) == 0
    return det, reg, str(tmp_path / "qa.jsonl")


def test_synth_deterministic(tmp_path):
    spec = _spec_file(tmp_path, [_world_json(5), _world_json(6)])
    for name in ("a", "b"):
        assert main(["synth", "--spec", spec, "--out-detections", str(tmp_path / f"{name}.jsonl"),
                     "--out-qa", str(tmp_path / f"{name}-qa.jsonl"),
                     "--out-truth", str(tmp_path / f"{name}-gt.json")]) == 0
    for suffix in (".jsonl", "-qa.jsonl", "-gt.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_ingest_compact_stats_pipeline(tmp_path):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=3, qa=False,
                                n_frames=6, n_static=5, n_dynamic=2)
    graph_file = str(tmp_path / "g.json")
    compact_file = str(tmp_path / "c.json")
    stats_file = str(tmp_path / "s.json")
    assert main(["ingest", "--in", det, "--registry", reg, "--out", graph_file]) == 0
    assert main(["compact", "--in", graph_file, "--out", compact_file,
                 "--gamma", "0.5", "--delta", "3", "--stats", stats_file]) == 0
    stats = json.loads((tmp_path / "s.json").read_text())
    # oracle-predicted reduction: statics merge 6 frames -> 1 node per object
    full = 6 * (5 + 2)
    after = 5 + 6 * 2
    assert stats["videos"] == 3
    assert stats["full"] == pytest.approx(full)
    assert stats["static"] == pytest.approx(5)
    assert stats["dynamic"] == pytest.approx(12)
    assert stats["reduction_pct"] == pytest.approx(100 * (1 - after / full))
    assert stats["format"] == "prism25d-stats"


def test_single_video_roundtrip_flat_graph_file(tmp_path):
    spec = _spec_file(tmp_path, [_world_json(7)])
    det = str(tmp_path / "d.jsonl")
    reg = str(tmp_path / "reg.json")
    main(["synth", "--spec", spec, "--out-detections", det, "--out-registry", reg])
    graph_file = str(tmp_path / "g.json")
    assert main(["ingest", "--in", det, "--registry", reg, "--out", graph_file]) == 0
    assert "graphs" not in json.loads(Path(graph_file).read_text())  # flat single-video format
    (g,) = load_corpus(graph_file)
    assert g.video_id == "w7"


def test_train_lr_zero_checkpoints_byte_identical(tmp_path):
    """Two epochs at lr 0 leave the untrained model that `train --epochs 0` writes."""
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=2, n_frames=4, n_static=5, n_dynamic=2)
    init_ckpt = tmp_path / "init.ckpt"
    final_ckpt = tmp_path / "final.ckpt"
    train = ["train", "--detections", det, "--registry", reg, "--qa", qa, "--latent", "16", "--heads", "2"]
    assert main(train + ["--out", str(final_ckpt), "--lr", "0.0", "--epochs", "2"]) == 0
    assert main(train + ["--out", str(init_ckpt), "--epochs", "0"]) == 0
    assert init_ckpt.read_bytes() == final_ckpt.read_bytes()


def test_diverged_train_writes_nothing(tmp_path, capsys, monkeypatch):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=4, n_static=5, n_dynamic=2)
    train = cli.train

    def diverging_train(*args, **kwargs):
        model, metrics = train(*args, **kwargs)
        model.named_parameters()[3][1].data[0] = np.inf
        return model, metrics

    monkeypatch.setattr(cli, "train", diverging_train)
    outs = [tmp_path / name for name in ("m.ckpt", "metrics.json")]
    capsys.readouterr()
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(outs[0]), "--metrics", str(outs[1]),
                 "--epochs", "1", "--latent", "16", "--heads", "2"])
    assert "holds a non-finite value" in _one_error(capsys, code, kind="validation")
    assert not any(path.exists() for path in outs)


NON_FINITE_SCORES = r"the model's answer scores are not finite \(loss (nan|inf|-inf)\)$"


@pytest.mark.parametrize("val, where", [
    (False, "epoch 0, step 1: "), (True, "epoch 0, validation: instance 0 of 4: "),
], ids=["step", "validation"])
def test_train_whose_scores_overflow_writes_nothing(tmp_path, capsys, val, where):
    """With lr 1e200 one Adam step leaves weights whose scores overflow: the next step, or with
    one batch per epoch the epoch's validation, reports it."""
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=4, n_static=5, n_dynamic=2)
    outs = [tmp_path / name for name in ("m.ckpt", "metrics.json")]
    capsys.readouterr()
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(outs[0]), "--metrics", str(outs[1]),
                 "--lr", "1e200", "--epochs", "2", "--latent", "16", "--heads", "2",
                 *(["--val", qa] if val else ["--batch", "1"])])
    assert re.match(where + NON_FINITE_SCORES, _one_error(capsys, code, kind="validation"))
    assert not any(path.exists() for path in outs)


def test_eval_of_a_model_whose_scores_overflow_writes_nothing(trained, capsys):
    from prism25d.qa import load_model

    tmp_path, det, reg, qa, ckpt = trained
    model, header = load_model(ckpt)
    for _, tensor in model.named_parameters():
        tensor.data = tensor.data * 1e200
    scaled, out = tmp_path / "scaled.ckpt", tmp_path / "eval-scaled.json"
    save_model(scaled, model, seed=header["seed"], step=header["step"])
    capsys.readouterr()
    code = main(["eval", "--detections", det, "--registry", reg, "--qa", qa, "--model", str(scaled),
                 "--out", str(out)])
    assert re.match("instance 0 of 8: " + NON_FINITE_SCORES, _one_error(capsys, code, kind="validation"))
    assert not out.exists()


def test_train_eval_cycle_and_eval_determinism(tmp_path, capsys):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=3, n_frames=5, n_static=5, n_dynamic=2)
    ckpt = str(tmp_path / "m.ckpt")
    metrics = str(tmp_path / "train-metrics.json")
    assert main(["train", "--detections", det, "--registry", reg, "--qa", qa, "--val", qa,
                 "--out", ckpt, "--metrics", metrics,
                 "--epochs", "2", "--latent", "16", "--heads", "2", "--sigmas", "0.1,1"]) == 0
    m = json.loads((tmp_path / "train-metrics.json").read_text())
    assert m["format"] == "prism25d-metrics" and len(m["epochs"]) == 2
    assert "val_accuracy" in m["epochs"][0]

    for name in ("e1.json", "e2.json"):
        assert main(["eval", "--detections", det, "--registry", reg, "--qa", qa,
                     "--model", ckpt, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "e1.json").read_bytes() == (tmp_path / "e2.json").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=2, n_frames=4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "latent": 16, "heads": 2, "sigmas": [0.1, 1.0]}))
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", ckpt, "--config", str(cfg), "--epochs", "2"]) == 0
    from prism25d.qa import load_model

    model, header = load_model(ckpt)
    assert model.config.latent_dim == 16  # from the config file
    assert header["step"] > 0


@pytest.mark.parametrize("config, flags, combine", [
    ({"combine": True}, ["--no-combine"], False),
    ({"combine": False}, [], False),
    (None, [], True),
], ids=["flag-beats-file", "file-alone", "neither"])
def test_no_combine_flag_and_config_file(tmp_path, config, flags, combine):
    argv = ["train", "--detections", "d", "--registry", "r", "--qa", "q", "--out", "o", *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    cfg = cli.RunConfig.resolve(cli.build_parser().parse_args(argv))
    assert cfg.combine is combine and cli._model_config(cfg).combine is combine


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint trained on a file of 8-frame videos: (directory, detections, registry, qa, checkpoint)."""
    tmp_path = tmp_path_factory.mktemp("trained")
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=2, n_frames=8)
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--detections", det, "--registry", reg, "--qa", qa, "--out", ckpt,
                 "--epochs", "1", "--latent", "16", "--heads", "2"]) == 0
    return tmp_path, det, reg, qa, ckpt


def _with_companion(tmp_path, det, n_frames):
    """The detection file `det` with an unrelated world's video of `n_frames` frames after its
    lines, and the companion's own lines."""
    extra = tmp_path / f"extra-{n_frames}.jsonl"
    assert main(["synth", "--spec", _spec_file(tmp_path, [_world_json(200, n_frames=n_frames)]),
                 "--out-detections", str(extra)]) == 0
    both = tmp_path / f"with-{n_frames}.jsonl"
    both.write_bytes(Path(det).read_bytes() + extra.read_bytes())
    return str(both), extra.read_text().splitlines()


def test_eval_builds_graphs_by_the_checkpoint_pipeline(trained, capsys):
    """A video's answers do not depend on the other videos of its file: a shorter companion
    changes no byte, and a longer one runs past the recorded frame count."""
    tmp_path, det, reg, qa, ckpt = trained
    outs = {}
    for name, n_frames in (("alone", None), ("short", 6)):
        dets = det if n_frames is None else _with_companion(tmp_path, det, n_frames)[0]
        outs[name] = tmp_path / f"eval-{name}.json"
        assert main(["eval", "--detections", dets, "--registry", reg, "--qa", qa, "--model", ckpt,
                     "--out", str(outs[name])]) == 0
    assert outs["alone"].read_bytes() == outs["short"].read_bytes()

    dets, extra = _with_companion(tmp_path, det, 24)
    first = next(i for i, line in enumerate(extra) if json.loads(line)["frame_index"] >= 8)
    line = len(Path(det).read_text().splitlines()) + first + 1
    out = tmp_path / "eval-long.json"
    capsys.readouterr()
    code = main(["eval", "--detections", dets, "--registry", reg, "--qa", qa, "--model", ckpt,
                 "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == f"line {line}: frame_index 8 outside [0, 8)"
    assert not out.exists()


def test_eval_compacts_only_the_videos_its_questions_reference(trained, monkeypatch):
    tmp_path, det, reg, qa, ckpt = trained
    lines = Path(qa).read_text().splitlines()
    assert {json.loads(line)["video_id"] for line in lines} == {"w100", "w101"}
    one = tmp_path / "qa-w101.jsonl"
    one.write_text("".join(line + "\n" for line in lines if json.loads(line)["video_id"] == "w101"))
    compacted = []
    compact = cli.compact
    monkeypatch.setattr(cli, "compact", lambda graph, params: compacted.append(graph.video_id)
                        or compact(graph, params))
    assert main(["eval", "--detections", det, "--registry", reg, "--qa", str(one), "--model", ckpt]) == 0
    assert compacted == ["w101"]


@pytest.mark.parametrize("flag", [["--config", "cfg.json"], ["--gamma", "0.5"], ["--delta", "3"],
                                  ["--max-frames", "24"], ["--image-w", "512"], ["--image-h", "512"],
                                  ["--fx", "1"], ["--fy", "1"], ["--cx", "1"], ["--cy", "1"]],
                         ids=lambda flag: flag[0])
def test_eval_takes_no_pipeline_flag(tmp_path, capsys, flag):
    out = tmp_path / "e.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", "q.jsonl",
              "--model", "m.ckpt", "--out", str(out), *flag])
    assert flag[0] in _one_error(capsys, exc.value.code, kind="usage")
    assert not out.exists()


def test_eval_refuses_a_registry_other_than_the_checkpoint_one(trained, capsys):
    tmp_path, det, reg, qa, ckpt = trained
    renamed = json.loads(Path(reg).read_text())
    renamed["classes"][0]["name"] += "-renamed"
    other, out = tmp_path / "renamed.json", tmp_path / "eval-renamed.json"
    other.write_text(json.dumps(renamed))
    capsys.readouterr()
    code = main(["eval", "--detections", det, "--registry", str(other), "--qa", qa, "--model", ckpt,
                 "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == (
        f"registry {other} is not the one the checkpoint was trained with")
    assert not out.exists()


def test_train_records_its_pipeline_in_the_checkpoint(trained):
    from prism25d.graph import ClassRegistry
    from prism25d.qa import load_model

    _, _, reg, _, ckpt = trained
    config = load_model(ckpt)[0].config
    assert (config.match, config.intrinsics, config.max_frames) == (MatchParams(), DEFAULT_INTRINSICS, 8)
    assert config.registry_digest == ClassRegistry.load(reg).digest()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compact", "--in", "x", "--out", "y", "--bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.strip()
    obj = json.loads(err)  # single-line JSON on stderr
    assert obj["error"] == "usage"


def test_missing_input_file_exits_two(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    code = main(["ingest", "--in", str(tmp_path / "nope.jsonl"), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_validation_failure_exits_one(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"video_id": "v", "frame_index": 0}\n')
    code = main(["ingest", "--in", str(bad), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] in ("parse", "validation")


# well-formed values the graph checks reject (the others are rejected as the file is read)
_BAD_DETECTION_VALUES = [
    ("bbox", [50.0, 10.0, 10.0, 50.0]),
    ("depth", -1.0),
    ("depth", 0.0),
    ("frame_index", -1),
    ("class_id", 999),
    ("motion_feature", None),
]


@pytest.mark.parametrize("field, value", [
    ("depth", float("nan")),
    ("depth", float("inf")),
    ("depth", float("-inf")),
    ("bbox", [10.0, 10.0, float("inf"), 50.0]),
    ("feature", [float("nan"), 0.0]),
    ("motion_feature", [0.0, float("inf")]),
    ("class_id", "x"),
    ("class_id", None),
    ("frame_index", "x"),
    ("frame_index", 1.5),
    ("feature", [1.0, 0.0, 0.5]),  # the first line's feature has 2 values
    *_BAD_DETECTION_VALUES,
])
def test_bad_detection_field_exits_one(tmp_path, capsys, field, value):
    bad = detection(frame=1, class_id=sw.DYNAMIC_CLASS_BASE, motion=(0.5, 0.5))
    bad[field] = value
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = tmp_path / "d.jsonl"
    good = detection(class_id=sw.STATIC_CLASS_BASE)
    det.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")  # json writes NaN/Infinity
    code = main(["ingest", "--in", str(det), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1
    obj = json.loads(err[0])
    kind = "validation" if (field, value) in _BAD_DETECTION_VALUES else "parse"
    assert obj["error"] == kind and obj["message"].startswith("line 2:")
    assert field in obj["message"]
    assert not (tmp_path / "g.json").exists()


def _pipeline_must_not_run(*_args):
    raise AssertionError("the pipeline ran before the inputs were read")


def _one_error(capsys, code, kind="parse", line=None):
    """Check for exit 1 and one JSON error line on stderr; return its message."""
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1
    obj = json.loads(err[0])
    assert obj["error"] == kind
    if line is not None:
        assert obj["message"].startswith(f"line {line}:")
    return obj["message"]


def _edit_checkpoint_header(ckpt, change):
    head_line, blob = ckpt.read_bytes().split(b"\n", 1)
    head = json.loads(head_line)
    change(head)
    ckpt.write_bytes(json.dumps(head).encode() + b"\n" + blob)


@pytest.mark.parametrize("change", [
    lambda rec: rec.pop("gt"),
    lambda rec: rec.update(gt="0"),
    lambda rec: rec.update(question=[1, "x"]),
    lambda rec: rec.update(candidates=[[2], [3.0]]),
    lambda rec: rec.update(candidates=7),
    lambda rec: rec.update(gt=9),
    lambda rec: rec.update(candidates=rec["candidates"][:1], gt=0),
    lambda rec: rec.update(question=[]),
    lambda rec: rec.update(question=[1, sw.VOCAB_SIZE]),
    lambda rec: rec["candidates"][1].append(-1),
], ids=["no-gt", "string-gt", "string-token", "float-token", "candidates-not-a-list",
        "gt-out-of-range", "one-candidate", "empty-question", "token-past-vocab", "negative-token"])
def test_bad_qa_line_exits_one(tmp_path, capsys, monkeypatch, change):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1)
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    lines = (tmp_path / "qa.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    change(rec)
    lines[1] = json.dumps(rec)
    (tmp_path / "qa.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    _one_error(capsys, code, line=2)
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--vocab", "0"], "vocab_size must be at least 1, got 0"),
    (["--heads", "0"], "latent_dim 32 must divide evenly into 0 heads"),
    (["--lr", "-1"], "lr must be finite and not negative, got -1.0"),
    (["--batch", "0"], "batch_size must be at least 1, got 0"),
    (["--epochs", "-1"], "epochs must not be negative, got -1"),
    (["--seed", "-1"], "seed must not be negative, got -1"),
    (["--fx", "256", "--fy", "256", "--cx", "inf", "--cy", "128"],
     "principal point must be finite, got inf, 128.0"),
    (["--latent", "4000000", "--heads", "1"],
     "the model's 256000440000000 parameters exceed the limit of 16777216"),
    (["--vocab", "100000000000000000000"],
     "the model's 3200000000000000016704 parameters exceed the limit of 16777216"),
], ids=["vocab", "heads", "lr", "batch", "epochs", "seed", "principal-point", "latent-size", "vocab-size"])
def test_train_checks_its_model_knobs_before_reading_any_input(tmp_path, capsys, monkeypatch, flags,
                                                               message):
    """Every input file is missing: a knob out of range is reported before any is opened."""
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["train", "--detections", str(tmp_path / "missing.jsonl"),
                 "--registry", str(tmp_path / "missing.json"), "--qa", str(tmp_path / "missing-qa.jsonl"),
                 "--out", str(tmp_path / "m.ckpt"), *flags])
    assert _one_error(capsys, code, kind="validation") == message
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "5"], "gamma must lie in (0, 1), got 5.0"),
    (["--max-frames", "0"], "max_frames must be positive, got 0"),
    (["--fx", "-1", "--fy", "1", "--cx", "0", "--cy", "0"],
     "focal lengths must be positive and finite, got -1.0, 1.0"),
], ids=["gamma", "max-frames", "focal-length"])
def test_ingest_checks_its_knobs_before_reading_any_input(tmp_path, capsys, flags, message):
    """Every input file is missing: a knob out of range is reported before any is opened."""
    out = tmp_path / "g.json"
    code = main(["ingest", "--in", str(tmp_path / "missing.jsonl"),
                 "--registry", str(tmp_path / "missing.json"), "--out", str(out), *flags])
    assert _one_error(capsys, code, kind="validation") == message
    assert not out.exists()


def test_ingest_given_part_of_the_intrinsics_exits_one(tmp_path, capsys):
    reg, out = tmp_path / "reg.json", tmp_path / "g.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE)])
    code = main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out), "--fx", "100"])
    assert _one_error(capsys, code) == "intrinsics need all of --fx --fy --cx --cy"
    assert not out.exists()


def test_a_depth_past_the_float_range_exits_one(tmp_path, capsys):
    """A 401-digit JSON integer is read exactly but has no float: the finite-number check
    counts the OverflowError of converting it as a fault."""
    reg, out = tmp_path / "reg.json", tmp_path / "g.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE, depth=10**400)])
    code = main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out)])
    assert _one_error(capsys, code, line=1) == f"line 1: depth must be a finite number, got {10**400}"
    assert not out.exists()


def test_eval_on_an_empty_qa_file_exits_one(tmp_path, capsys):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=3)
    ckpt, qa, out = tmp_path / "m.ckpt", tmp_path / "qa.jsonl", tmp_path / "e.json"
    save_model(ckpt, init_model(ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE), seed=0), seed=0, step=0)
    qa.write_text("")
    code = main(["eval", "--detections", det, "--registry", reg, "--qa", str(qa), "--model", str(ckpt),
                 "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == "empty evaluation dataset"
    assert not out.exists()


def test_eval_checks_qa_tokens_against_the_checkpoint_vocabulary(tmp_path, capsys, monkeypatch):
    qa, ckpt = tmp_path / "q.jsonl", tmp_path / "m.ckpt"
    write_jsonl(qa, [{"video_id": "v", "question": [1, 11], "candidates": [[2], [3]], "gt": 0},
                     {"video_id": "v", "question": [12], "candidates": [[2], [3]], "gt": 0}])
    save_model(ckpt, init_model(ModelConfig(d_o=2, d_a=2, vocab_size=12), seed=0), seed=0, step=3)
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", str(qa),
                 "--model", str(ckpt), "--out", str(tmp_path / "e.json")])
    assert "token id 12 outside vocabulary of size 12" in _one_error(capsys, code, line=2)
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("widths, message", [
    ({"d_o": 12}, "video 'w100': nodes carry 16 feature values, the model takes 12"),
    ({"d_a": 6}, "video 'w100': dynamic nodes carry 8 motion values, the model takes 6"),
], ids=["feature-width", "motion-width"])
def test_eval_checks_graph_widths_against_the_checkpoint(tmp_path, capsys, widths, message):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=3)
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "e.json"
    config = ModelConfig(**{"d_o": 16, "d_a": 8, **widths}, vocab_size=sw.VOCAB_SIZE)
    save_model(ckpt, init_model(config, seed=0), seed=0, step=0)
    capsys.readouterr()
    code = main(["eval", "--detections", det, "--registry", reg, "--qa", qa, "--model", str(ckpt),
                 "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == message
    assert not out.exists()


@pytest.mark.parametrize("change, kind, message", [
    (lambda head: head["config"].pop("heads"), "parse", "missing ModelConfig field 'heads'"),
    (lambda head: head["config"].update(latent_dim="32"), "parse", "latent_dim must be an integer, got '32'"),
    (lambda head: head["config"].update(sigma_s=["a"]), "parse",
     "sigma_s must be a list, each a finite number, got ['a']"),
    (lambda head: head.update(config=[]), "parse", "ModelConfig must be a JSON object, got []"),
    (lambda head: head.update(seed="x"), "parse", "seed must be a non-negative integer, got 'x'"),
    (lambda head: head.pop("step"), "parse", "missing field 'step'"),
    (lambda head: head.update(params=7), "parse", "params must be a list, each a JSON object, got 7"),
    (lambda head: head.update(seed=-1), "parse", "seed must be a non-negative integer, got -1"),
    (lambda head: head.update(step=-1), "parse", "step must be a non-negative integer, got -1"),
    (lambda head: head["config"].update(feature_hidden=[]), "parse",
     "unknown ModelConfig field 'feature_hidden'"),
    (lambda head: [head["config"].pop(key) for key in ("match", "intrinsics", "max_frames", "registry_digest")],
     "parse", "missing ModelConfig field 'match'"),
    (lambda head: head["config"].update(match={"gamma": 0.5}), "parse", "missing MatchParams field 'delta'"),
    (lambda head: head["config"].update(registry_digest=7), "parse",
     "registry_digest must be a string or null, got 7"),
    (lambda head: head["config"].update(latent_dim=4_000_000, heads=1), "validation",
     "the model's 256000104000000 parameters exceed the limit of 16777216"),
    (lambda head: head.update(version=2), "validation", "unsupported version 2"),
], ids=["config-no-heads", "config-string-latent", "config-string-sigma", "config-not-an-object",
        "string-seed", "no-step", "params-not-a-list", "negative-seed", "negative-step",
        "config-feature-hidden", "config-no-pipeline",
        "config-match-no-delta", "config-numeric-registry-digest", "config-too-many-parameters",
        "version-2"])
def test_bad_checkpoint_header_exits_one(tmp_path, capsys, monkeypatch, change, kind, message):
    """A header an older build wrote, with a `feature_hidden` config field or without the
    pipeline fields, is a parse error too; a config whose model is past the parameter limit
    is a validation error, found before any parameter is allocated."""
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_model(ModelConfig(d_o=2, d_a=2, vocab_size=12), seed=0), seed=0, step=3)
    _edit_checkpoint_header(ckpt, change)
    qa = write_jsonl(tmp_path / "qa.jsonl",
                     [{"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": 0}])
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", str(qa),
                 "--model", str(ckpt), "--out", str(tmp_path / "e.json")])
    assert _one_error(capsys, code, kind=kind).removeprefix(f"{ckpt}: ") == message
    assert not (tmp_path / "e.json").exists()


def _extra_entry(ckpt):
    _edit_checkpoint_header(ckpt, lambda head: head["params"].append({"name": "bogus", "shape": [1]}))
    ckpt.write_bytes(ckpt.read_bytes() + bytes(8))


def _repeated_entry(ckpt):
    _edit_checkpoint_header(ckpt, lambda head: head["params"][1].update(name=head["params"][0]["name"]))


def _first_entry_shape(shape):
    """A checkpoint change: the manifest's first entry claims `shape`."""
    return lambda ckpt: _edit_checkpoint_header(ckpt, lambda head: head["params"][0].update(shape=shape))


def _nan_weight(ckpt):
    data = ckpt.read_bytes()
    start = data.index(b"\n") + 1
    ckpt.write_bytes(data[:start] + struct.pack("<d", float("nan")) + data[start + 8:])


@pytest.mark.parametrize("change, message", [
    (_extra_entry, "checkpoint manifest entry"),
    (_repeated_entry, "checkpoint manifest entry 1 is 'mlp_s.w0', the model's is 'mlp_s.b0'"),
    (_nan_weight, "holds a non-finite value"),
    (_first_entry_shape([2**32, 2**32]), "truncated parameter blob at mlp_s.w0"),  # wraps to 0 in int64
    (_first_entry_shape([2**36]), "truncated parameter blob at mlp_s.w0"),  # 512 GB
    (_first_entry_shape([0, 2**70]), f"parameter mlp_s.w0 has shape [0, {2**70}]"),
    (_first_entry_shape([1] * 65), "parameter mlp_s.w0 has shape [1, 1"),  # one value on more axes than numpy takes
    (_first_entry_shape([2, 32]), "checkpoint parameter mlp_s.w0 has the wrong shape"),  # [32, 2] reversed
], ids=["extra-entry", "repeated-entry", "nan-weight", "int64-wrapping-entry", "entry-beyond-the-file",
        "zero-and-huge-dimension", "too-many-dimensions", "reversed-shape"])
def test_bad_checkpoint_body_exits_one(tmp_path, capsys, monkeypatch, change, message):
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_model(ModelConfig(d_o=2, d_a=2, vocab_size=12), seed=0), seed=0, step=3)
    change(ckpt)
    qa = write_jsonl(tmp_path / "qa.jsonl",
                     [{"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": 0}])
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", str(qa),
                 "--model", str(ckpt), "--out", str(tmp_path / "e.json")])
    assert message in _one_error(capsys, code, kind="validation")
    assert not (tmp_path / "e.json").exists()


_BANDWIDTHS = "kernel bandwidths must be positive and finite"


@pytest.mark.parametrize("command, change, message", [
    ("train", ["--latent", "0"], "latent_dim must be at least 1, got 0"),
    ("train", ["--batch", "0"], "batch_size must be at least 1, got 0"),
    ("train", ["--fx", "0", "--fy", "1", "--cx", "0", "--cy", "0"],
     "focal lengths must be positive and finite, got 0.0, 1.0"),
    ("train", ["--epochs", "-1"], "epochs must not be negative, got -1"),
    ("train", ["--standard-layers", "-1"], "n_standard_layers must be at least 0, got -1"),
    ("train", ["--heads", "3", "--latent", "32"], "latent_dim 32 must divide evenly into 3 heads"),
    ("train", ["--sigmas", "0,1"], _BANDWIDTHS),
    ("train", ["--sigmas", "0.1,1", "--sigma-t", "1"], "sigma_s and sigma_t hierarchies differ in length"),
    ("train", ["--lr", "-1"], "lr must be finite and not negative, got -1.0"),
    ("train", ["--sigmas", "1,inf"], _BANDWIDTHS),
    ("train", ["--sigma-t", "1,1,1,1e400"], _BANDWIDTHS),
    ("train", ["--seed", "-3"], "seed must not be negative, got -3"),
    ("eval", {"latent_dim": 0}, "latent_dim must be at least 1, got 0"),
    ("eval", {"d_o": 0}, "d_o must be at least 1, got 0"),
    ("eval", {"match": {"gamma": 1.5, "delta": 3}}, "gamma must lie in (0, 1), got 1.5"),
    ("eval", {"intrinsics": {"fx": 0.0, "fy": 256.0, "cx": 128.0, "cy": 128.0}},
     "focal lengths must be positive and finite, got 0.0, 256.0"),
    ("eval", {"max_frames": 0}, "max_frames must be at least 1, got 0"),
    ("eval", {"sigma_s": []}, "kernel hierarchy needs at least one level"),
], ids=["zero-latent", "zero-batch", "zero-focal-length", "negative-epochs",
        "negative-standard-layers", "heads-not-dividing-latent", "zero-sigma",
        "sigma-t-length", "negative-lr", "infinite-sigma", "infinite-sigma-t", "negative-seed",
        "checkpoint-zero-latent", "checkpoint-zero-d_o", "checkpoint-gamma", "checkpoint-zero-fx",
        "checkpoint-zero-max-frames", "checkpoint-no-kernel-level"])
def test_out_of_range_config_exits_one(tmp_path, capsys, command, change, message):
    """`change` is the train flags, or the checkpoint config fields eval reads."""
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=3)
    out, metrics = tmp_path / "out", tmp_path / "metrics.json"
    args = [command, "--detections", det, "--registry", reg, "--qa", qa, "--out", str(out)]
    if command == "train":
        args += ["--metrics", str(metrics), "--epochs", "1", *change]
    else:
        ckpt = tmp_path / "bad.ckpt"
        save_model(ckpt, init_model(ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE), seed=0),
                   seed=0, step=0)
        _edit_checkpoint_header(ckpt, lambda head: head["config"].update(change))
        args += ["--model", str(ckpt)]
    capsys.readouterr()
    assert _one_error(capsys, main(args), kind="validation") == message
    assert not out.exists() and not metrics.exists()


@pytest.mark.parametrize("registry, kind, message", [
    ({"kinds": []}, "parse", "missing field 'classes'"),
    ({"classes": [{"id": 1, "name": "a"}]}, "parse", "missing field 'kind'"),
    ({"classes": [{"id": "1", "name": "a", "kind": "static"}]}, "parse", "id must be an integer, got '1'"),
    ([], "parse", "expected a JSON object"),
    ({"classes": [{"id": 1, "name": "a", "kind": "moving"}]}, "validation",
     "class kind must be 'static' or 'dynamic', got 'moving'"),
    ({"classes": [{"id": 1, "name": "a", "kind": "static"}, {"id": 1, "name": "b", "kind": "dynamic"}]},
     "validation", "duplicate class id 1 in registry"),
], ids=["no-classes", "no-kind", "string-id", "not-an-object", "unknown-kind", "repeated-id"])
def test_bad_registry_exits_one(tmp_path, capsys, registry, kind, message):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(registry))
    det = tmp_path / "d.jsonl"
    det.write_text(json.dumps(detection(class_id=sw.STATIC_CLASS_BASE)) + "\n")
    code = main(["ingest", "--in", str(det), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json")])
    assert _one_error(capsys, code, kind=kind) == message
    assert not (tmp_path / "g.json").exists()


def _shift_frames(graph, by):
    """Move every frame index of a graph-file body by `by`, listings and node sources alike."""
    for n in graph["nodes"]:
        n["source_frames"] = [f + by for f in n["source_frames"]]
    for listing in graph["frames"]:
        listing["frame_index"] += by


def _degenerate_box_then(fault):
    """A graph-file change: a degenerate box at node 0 and `fault` on node 3."""
    def change(obj):
        nodes = obj["graphs"][0]["nodes"]
        nodes[0]["bbox"] = [50.0, 10.0, 10.0, 50.0]
        fault(nodes[3])
    return change


def _degenerate_box_and_repeated_frame(obj):
    """A degenerate box at node 0, and the first frame listed twice."""
    _degenerate_box_then(lambda node: None)(obj)
    frames = obj["graphs"][0]["frames"]
    frames.insert(1, frames[0])


@pytest.mark.parametrize("change, kind, where", [
    (lambda obj: obj["graphs"][0]["nodes"][0].pop("bbox"), "parse", "video 'w100': "),
    (lambda obj: obj["graphs"][0]["nodes"][0]["centroid3d"].__setitem__(2, float("nan")),
     "parse", "video 'w100': "),
    (lambda obj: obj["graphs"][1]["nodes"][0].update(node_id="0"), "parse", "video 'w101': "),
    (lambda obj: obj.update(graphs=7), "parse", ""),
    (lambda obj: obj["graphs"][0]["nodes"][1].update(bbox=[10.0, 10.0, 50.0]), "parse", "video 'w100': "),
    (lambda obj: obj["graphs"][1]["nodes"][0].pop("bbox"), "parse", "video 'w101': missing field 'bbox'"),
    (lambda obj: obj["graphs"][1].update(max_frames=-5), "validation",
     "video 'w101': node 0: source frames must lie in [0, -5)"),
    (lambda obj: _shift_frames(obj["graphs"][0], -10), "validation",
     "video 'w100': node 0: source frames must lie in [0, 3)"),
    (_degenerate_box_then(lambda node: node.update(source_frames=[2, 0])),
     "validation", "video 'w100': node 0: degenerate bbox"),
    (_degenerate_box_then(lambda node: node.update(source_frames=[])),
     "validation", "video 'w100': node 0: degenerate bbox"),
    (_degenerate_box_then(lambda node: node.update(motion_feature=[0.0] * 8)),
     "validation", "video 'w100': node 0: degenerate bbox"),
    (_degenerate_box_and_repeated_frame, "validation", "video 'w100': node 0: degenerate bbox"),
    (lambda obj: obj["graphs"][0]["nodes"][2].update(node_id=1), "validation",
     "video 'w100': repeats node id 1"),
    (lambda obj: obj["graphs"][0]["dynamic_nodes"].append(2), "validation",
     "video 'w100': static/dynamic sets do not partition the node ids at node 2"),
    (lambda obj: obj["graphs"][0]["static_nodes"].remove(2), "validation",
     "video 'w100': static/dynamic sets do not partition the node ids at node 2"),
    (lambda obj: obj["graphs"][0]["static_nodes"].append(0), "validation",
     "video 'w100': static/dynamic sets do not partition the node ids at node 0"),
], ids=["no-bbox", "nan-centroid", "string-node-id", "graphs-not-a-list", "three-value-bbox",
        "second-video-no-bbox", "negative-max-frames", "negative-frames", "first-bad-node",
        "first-bad-node-before-empty-source-frames", "first-bad-node-before-motion-kind",
        "first-bad-node-before-repeated-frame", "repeated-node-id", "node-in-both-sets",
        "node-in-neither-set", "node-listed-twice"])
def test_bad_graph_file_exits_one(tmp_path, capsys, change, kind, where):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=2, qa=False, n_frames=3)
    graph_file = tmp_path / "g.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    obj = json.loads(graph_file.read_text())
    change(obj)
    graph_file.write_text(json.dumps(obj))  # json writes NaN
    capsys.readouterr()
    code = main(["compact", "--in", str(graph_file), "--out", str(tmp_path / "c.json"),
                 "--stats", str(tmp_path / "s.json")])
    assert _one_error(capsys, code, kind=kind).startswith(where)
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "s.json").exists()


# a graph file lists each node once in each of its source frames, and no frame twice
@pytest.mark.parametrize("change, message", [
    (lambda g: g.update(frames=[]), "node 0 is not listed in its source frame 0"),
    (lambda g: g["frames"][1]["node_ids"].pop(0), "node 3 is not listed in its source frame 1"),
    (lambda g: g["frames"][2]["node_ids"].append(6), "frame 2 lists node 6 more than once"),
    (lambda g: g["frames"].insert(1, g["frames"][0]), "frame indices must strictly ascend, got 0 after 0"),
    (lambda g: g["frames"][0]["node_ids"].append(6),
     "frame 0 lists node 6, which is missing or has no source frame there"),
    (lambda g: g["frames"][0]["node_ids"].append(999),
     "frame 0 lists node 999, which is missing or has no source frame there"),
], ids=["no-frames", "unlisted-node", "listed-twice", "repeated-frame", "listed-outside-its-frames",
        "listed-id-no-node"])
def test_graph_file_listing_a_node_but_once_per_source_frame_exits_one(tmp_path, capsys, change, message):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=5, n_static=3, n_dynamic=0)
    graph_file, out = tmp_path / "g.json", tmp_path / "c.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    obj = json.loads(graph_file.read_text())
    assert obj["frames"][2]["node_ids"][0] == 6
    change(obj)
    graph_file.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["compact", "--in", str(graph_file), "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == f"video 'w100': {message}"
    assert not out.exists()


def test_version_1_graph_file_exits_one(tmp_path, capsys):
    # a graph file as version 1 wrote it: each node's times also stored, as "timestamps"
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=3)
    graph_file, out = tmp_path / "g.json", tmp_path / "c.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    obj = json.loads(graph_file.read_text())
    obj["version"] = 1
    for node in obj["nodes"]:
        node["timestamps"] = [f / obj["max_frames"] for f in node["source_frames"]]
    graph_file.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["compact", "--in", str(graph_file), "--out", str(out)])
    assert _one_error(capsys, code, kind="validation") == f"{graph_file}: unsupported version 1"
    assert not out.exists()


def test_graph_file_repeating_a_video_exits_one(tmp_path, capsys):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=3)
    graph_file = tmp_path / "g.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    body = json.loads(graph_file.read_text())
    header = {key: body.pop(key) for key in ("format", "version", "registry_digest")}
    graph_file.write_text(json.dumps({**header, "graphs": [body, body]}))
    capsys.readouterr()
    out = tmp_path / "out.json"
    code = main(["compact", "--in", str(graph_file), "--out", str(out)])
    assert "video 'w100' appears more than once" in _one_error(capsys, code, kind="validation")
    assert not out.exists()


def test_synth_repeating_a_video_id_exits_one(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"worlds": [{"seed": 1, "video_id": "w"}, {"seed": 2, "video_id": "w"}]}))
    outs = {"--out-detections": tmp_path / "d.jsonl", "--out-qa": tmp_path / "q.jsonl",
            "--out-truth": tmp_path / "t.json", "--out-registry": tmp_path / "r.json"}
    args = [arg for flag, path in outs.items() for arg in (flag, str(path))]
    code = main(["synth", "--spec", str(spec), *args])
    assert _one_error(capsys, code, kind="validation") == "worlds[1]: video_id 'w' repeats worlds[0]"
    assert not any(path.exists() for path in outs.values())


@pytest.mark.parametrize("spec, where, kind", [
    ({"seed": "x", "video_id": "w"}, "", "parse"),
    ({"seed": True, "video_id": "w"}, "", "parse"),
    ({"seed": 1, "video_id": "w", "n_frames": 2.7}, "", "parse"),
    ({"seed": 1, "video_id": "w", "camera": {"kind": "translating", "velocity": [float("nan"), 0, 0]}},
     "", "parse"),
    ({"seed": 1, "video_id": "w", "image_size": ["a", 3]}, "", "parse"),
    ([{"seed": 1, "video_id": "w"}], "", "parse"),
    ({"seed": 1, "video_id": "w", "n_frame": 3}, "", "parse"),
    ({"worlds": [{"seed": 1, "video_id": "a"}, {"seed": "x", "video_id": "b"}]},
     "worlds[1]: seed must be an integer", "parse"),
    ({"worlds": [{"seed": 1, "video_id": "a"}], "noise": {"bbox_px": 5.0}},
     "unknown spec field 'noise' beside 'worlds'", "parse"),
    ({"seed": -1, "video_id": "w"}, "seed must not be negative, got -1", "validation"),
    ({"seed": 1, "video_id": "w", "camera": {"kind": "spinning"}}, "unknown camera kind 'spinning'",
     "validation"),
    ({"seed": 1, "video_id": "w", "n_static": 9, "d_o": 16},
     "too many objects for the identity-coded feature width", "validation"),
    ({"seed": 1, "video_id": "w", "image_size": [0, 256]}, "image sides must be 1 to 65536 pixels",
     "validation"),
    ({"seed": 1, "video_id": "w", "extent_range": [1.5, 1.0]},
     "extent_range and pass_distance must be (low, high) with 0 < low <= high", "validation"),
    ({"seed": 1, "video_id": "w", "traj_targets": 3}, "traj_targets must be 1 or 2", "validation"),
    ({"seed": 1, "video_id": "w", "n_static_classes": 0},
     "class counts must be 1 to the number of registered classes", "validation"),
], ids=["string-seed", "bool-seed", "float-frames", "nan-velocity", "string-image-size",
        "top-level-list", "misspelt-key", "second-world-string-seed", "key-beside-worlds",
        "negative-seed", "unknown-camera-kind", "too-many-statics", "zero-image-side",
        "reversed-extent-range", "three-targets", "no-static-classes"])
def test_bad_world_spec_exits_one(tmp_path, capsys, spec, where, kind):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(path), "--out-detections", str(tmp_path / "d.jsonl")])
    assert _one_error(capsys, code, kind=kind).startswith(where)
    assert not (tmp_path / "d.jsonl").exists()


def test_synth_writes_nothing_when_a_world_fails(tmp_path, capsys):
    spec = _spec_file(tmp_path, [_world_json(1, n_frames=3), _world_json(2, static_separation=1e9)])
    code = main(["synth", "--spec", spec, "--out-detections", str(tmp_path / "d.jsonl")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not (tmp_path / "d.jsonl").exists()


def test_synth_names_the_first_non_finite_detection_and_writes_nothing(tmp_path, capsys):
    det, qa = tmp_path / "d.jsonl", tmp_path / "qa.jsonl"
    det.write_bytes(b"earlier bytes\n")
    spec = _spec_file(tmp_path, [_world_json(1, n_frames=3), _world_json(57, noise=sw.NoiseSpec(bbox_px=1e308))])
    code = main(["synth", "--spec", spec, "--out-detections", str(det), "--out-qa", str(qa)])
    message = _one_error(capsys, code, kind="validation")
    assert message == "video 'w57', frame 0: detection holds a non-finite number in bbox"
    assert det.read_bytes() == b"earlier bytes\n" and not qa.exists()


@pytest.mark.parametrize("command", ["synth", "ingest"])
def test_overflowing_input_gives_one_error_line_and_no_file(tmp_path, capsys, command):
    """Finite inputs whose arithmetic overflows: no numpy warning, and the non-finite
    result is reported as the one JSON error line instead of being written."""
    out = tmp_path / "out"
    if command == "synth":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "video_id": "a", "camera": {
            "kind": "translating", "velocity": [1e308, 0, 0]}}))
        args = ["synth", "--spec", str(spec), "--out-detections", str(out)]
    else:
        reg = tmp_path / "reg.json"
        sw.default_registry().save(reg)
        det = write_jsonl(tmp_path / "d.jsonl", [detection(
            class_id=sw.STATIC_CLASS_BASE, bbox=(0, 0, 1e308, 1e308), depth=1e308)])
        args = ["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    message = _one_error(capsys, code, kind="validation")
    if command == "ingest":
        assert message.startswith("line 1: lifted centroid")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["compact", "--in", "g.json", "--out", "c.json"],
    ["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", "q.jsonl",
     "--model", "m.ckpt"],
])
def test_jobs_flag_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--jobs", "2"])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"


@pytest.mark.parametrize("command, flag", [
    ("compact", ["--max-frames", "0"]),
    ("compact", ["--fx", "-5"]),
    ("compact", ["--fy", "100"]),
    ("compact", ["--cx", "0"]),
    ("compact", ["--cy", "0"]),
    ("ingest", ["--delta", "0"]),
], ids=["compact-max-frames", "compact-fx", "compact-fy", "compact-cx", "compact-cy", "ingest-delta"])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE)])
    graph_file, out = tmp_path / "g.json", tmp_path / "out.json"
    assert main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(graph_file)]) == 0
    args = {"compact": ["compact", "--in", str(graph_file)],
            "ingest": ["ingest", "--in", str(det), "--registry", str(reg)]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out), *flag])
    _one_error(capsys, exc.value.code, kind="usage")
    assert not out.exists()


_INGEST = ["ingest", "--in", "d.jsonl", "--registry", "reg.json", "--out", "g2.json"]
_COMPACT = ["compact", "--in", "g.json", "--out", "c.json"]
_TRAIN = ["train", "--detections", "d.jsonl", "--registry", "reg.json", "--qa", "qa.jsonl", "--out", "m.ckpt",
          "--epochs", "1"]


@pytest.mark.parametrize("args, kind, message", [
    (["stats", "--before", "g.json", "--after", "g.json", "--out", "s.json"], "usage", "invalid choice: 'stats'"),
    ([*_TRAIN, "--save-init", "x.ckpt"], "usage", "unrecognized arguments: --save-init x.ckpt"),
    ([*_INGEST, "--image-w", "512"], "usage", "unrecognized arguments: --image-w 512"),
    ([*_TRAIN, "--image-h", "512"], "usage", "unrecognized arguments: --image-h 512"),
    ([*_COMPACT, "--image-w", "64"], "usage", "unrecognized arguments: --image-w 64"),
    ([*_COMPACT, "--image-h", "64"], "usage", "unrecognized arguments: --image-h 64"),
    ([*_INGEST, "--config", "cfg.json"], "parse", "unknown RunConfig field 'image_w'"),
], ids=["stats", "train-save-init", "ingest-image-w", "train-image-h", "compact-image-w", "compact-image-h",
        "config-image-w"])
def test_removed_entry_point_is_refused(tmp_path, capsys, monkeypatch, args, kind, message):
    """`stats`, `train --save-init` and `--image-w`/`--image-h` wrote the same bytes as `compact
    --stats`, `train --epochs 0` and `--fx --fy --cx --cy`; each is now refused, writing nothing."""
    monkeypatch.chdir(tmp_path)
    sw.default_registry().save("reg.json")
    write_jsonl("d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE)])
    write_jsonl("qa.jsonl", [{"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": 0}])
    Path("cfg.json").write_text(json.dumps({"image_w": 640}))
    assert main(["ingest", "--in", "d.jsonl", "--registry", "reg.json", "--out", "g.json"]) == 0
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert message in _one_error(capsys, code, kind=kind)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_rejects_an_empty_qa_request(tmp_path, capsys, count):
    det, qa = tmp_path / "d.jsonl", tmp_path / "qa.jsonl"
    code = main(["synth", "--spec", _spec_file(tmp_path, [_world_json(5)]), "--out-detections", str(det),
                 "--out-qa", str(qa), "--qa-per-world", count])
    _one_error(capsys, code, kind="validation")
    assert not det.exists() and not qa.exists()


def test_synth_rejects_a_negative_qa_seed(tmp_path, capsys):
    det, qa = tmp_path / "d.jsonl", tmp_path / "qa.jsonl"
    code = main(["synth", "--spec", _spec_file(tmp_path, [_world_json(5)]), "--out-detections", str(det),
                 "--out-qa", str(qa), "--qa-seed", "-1"])
    assert "QA seed must not be negative" in _one_error(capsys, code, kind="validation")
    assert not det.exists() and not qa.exists()


# the graph file that ingest wrote for OVERFLOW_DETECTIONS before registration was
# batched, when LAPACK printed its DLASCL complaint on the way to the same fallback
OVERFLOW_GRAPH_SHA256 = "15bd197abd61bccc7bbdd6c3aac9cbfbc71fbce3e19874b028b737e5bb6e9023"


def test_ingest_keeps_lapack_off_an_overflowing_mean_centroid(tmp_path):
    """LAPACK prints its own errors from native code, so only a child process shows them."""
    det = write_jsonl(tmp_path / "d.jsonl", OVERFLOW_DETECTIONS)
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(OVERFLOW_REGISTRY))
    out = tmp_path / "g.json"
    src = str(Path(prism25d.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "prism25d.cli", "ingest", "--in", str(det), "--registry",
                           str(reg), "--out", str(out)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ingested 1 videos -> {out}\n", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OVERFLOW_GRAPH_SHA256


def test_ingest_no_register_takes_no_gamma(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE)])
    out = tmp_path / "g.json"
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out),
              "--no-register", "--gamma", "5"])
    _one_error(capsys, exc.value.code, kind="usage")
    assert not out.exists()


def test_one_parser_serves_each_command_of_a_process(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE, frame=f) for f in (0, 1)])
    out = tmp_path / "g.json"
    ingest = ["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(ingest + ["--no-register", "--gamma", "0.5"])
    _one_error(capsys, exc.value.code, kind="usage")
    assert main(ingest + ["--no-register"]) == 0
    assert capsys.readouterr() == (f"ingested 1 videos -> {out}\n", "")
    # were --no-register left over from the last command, this one would register nothing
    assert "gamma must lie in (0, 1)" in _one_error(capsys, main(ingest + ["--gamma", "5"]), kind="validation")


def test_ingest_checks_gamma_when_every_video_has_one_frame(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(video_id=v, class_id=sw.STATIC_CLASS_BASE)
                                              for v in ("a", "b")])
    out = tmp_path / "g.json"
    code = main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out), "--gamma", "5"])
    assert "gamma must lie in (0, 1)" in _one_error(capsys, code, kind="validation")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--fx", "256", "--fy", "256", "--cx", "nan", "--cy", "128"],
     "principal point must be finite, got nan, 128.0"),
], ids=["cx"])
def test_ingest_blames_a_non_finite_principal_point_on_its_flag(tmp_path, capsys, flags, message):
    """Not on the first detection it would lift."""
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=3)
    out = tmp_path / "g.json"
    code = main(["ingest", "--in", det, "--registry", reg, "--out", str(out), *flags])
    assert _one_error(capsys, code, kind="validation") == message
    assert not out.exists()


def test_a_merge_window_past_the_video_is_the_whole_video(tmp_path):
    """A `--delta` beyond any int64 frame difference merges as one that reaches frame 0 does,
    in `compact` and in the pipeline that `eval` runs from a checkpoint."""
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=2, n_frames=8)
    graph_file = tmp_path / "g.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    digests, metrics = set(), set()
    for delta in (8, 1000, 10**20 - 1):
        out, ckpt, scores = (tmp_path / f"{kind}{delta}" for kind in ("c", "m", "e"))
        assert main(["compact", "--in", str(graph_file), "--out", str(out), "--delta", str(delta)]) == 0
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        config = ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE, match=MatchParams(delta=delta))
        save_model(ckpt, init_model(config, seed=0), seed=0, step=0)
        assert main(["eval", "--detections", det, "--registry", reg, "--qa", qa, "--model", str(ckpt),
                     "--out", str(scores)]) == 0
        metrics.add(scores.read_bytes())
    assert len(digests) == 1 and len(metrics) == 1


@pytest.mark.parametrize("flag", [["--task", "count_dynamic"], ["--task", "nearest_static"],
                                  ["--qa-per-world", "0"], ["--qa-per-world", "4"],
                                  ["--qa-seed", "3"]])
def test_synth_qa_flag_without_out_qa_is_a_usage_error(tmp_path, capsys, flag):
    det = tmp_path / "d.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--spec", _spec_file(tmp_path, [_world_json(5)]), "--out-detections", str(det),
              *flag])
    assert flag[0] in _one_error(capsys, exc.value.code, kind="usage")
    assert not det.exists()


def test_run_config_defaults_match_the_library():
    """The CLI restates the library's defaults: a default changed on one side only fails here."""
    run = cli.RunConfig()
    match = MatchParams()
    model = ModelConfig(d_o=1, d_a=0, vocab_size=1)
    train = TrainConfig()
    assert (run.gamma, run.delta) == (match.gamma, match.delta)
    assert (run.sigmas, run.sigma_t, run.heads, run.latent, run.standard_layers, run.combine) == (
        model.sigma_s, model.sigma_t, model.heads, model.latent_dim, model.n_standard_layers,
        model.combine)
    assert (run.lr, run.batch, run.epochs, run.seed) == (train.lr, train.batch_size, train.epochs, train.seed)
    assert run.intrinsics() == DEFAULT_INTRINSICS
    assert (model.match, model.intrinsics, model.max_frames) == (match, DEFAULT_INTRINSICS, run.max_frames)


# each ModelConfig field but those inferred from the graphs, with train flags that set it off its
# default: the widths and the registry digest have none, and max_frames is the frame span without one
_MODEL_FLAGS = {
    "vocab_size": (["--vocab", "50"], 50),
    "latent_dim": (["--latent", "16"], 16),
    "heads": (["--heads", "2"], 2),
    "sigma_s": (["--sigmas", "0.5,5"], (0.5, 5.0)),
    "sigma_t": (["--sigma-t", "1,2,3,4"], (1.0, 2.0, 3.0, 4.0)),
    "n_standard_layers": (["--standard-layers", "2"], 2),
    "combine": (["--no-combine"], False),
    "match": (["--gamma", "0.7", "--delta", "2"], MatchParams(gamma=0.7, delta=2)),
    "intrinsics": (["--fx", "100", "--fy", "90", "--cx", "50", "--cy", "40"], Intrinsics(100.0, 90.0, 50.0, 40.0)),
    "max_frames": (["--max-frames", "12"], 12),
}


def test_every_model_config_field_has_a_train_flag():
    """No config knob without a flag: each field reaches the model config from `train`'s flags."""
    assert set(_MODEL_FLAGS) == {f.name for f in fields(ModelConfig)} - {"d_o", "d_a", "registry_digest"}
    base = ["train", "--detections", "d", "--registry", "r", "--qa", "q", "--out", "o"]
    default = cli._model_config(cli.RunConfig.resolve(cli.build_parser().parse_args(base)))
    for field, (flags, value) in _MODEL_FLAGS.items():
        args = cli.build_parser().parse_args(base + flags)
        config = cli._model_config(cli.RunConfig.resolve(args))
        assert getattr(default, field) != value
        assert getattr(config, field) == value, field


# each TrainConfig field, with train flags that set it off its default
_TRAIN_FLAGS = {
    "lr": (["--lr", "0.002"], 0.002),
    "batch_size": (["--batch", "4"], 4),
    "epochs": (["--epochs", "3"], 3),
    "seed": (["--seed", "5"], 5),
}


def test_every_train_config_field_has_a_train_flag():
    """No schedule knob outside the config: each field reaches the train config from `train`'s flags."""
    assert set(_TRAIN_FLAGS) == {f.name for f in fields(TrainConfig)}
    base = ["train", "--detections", "d", "--registry", "r", "--qa", "q", "--out", "o"]
    default = cli.RunConfig.resolve(cli.build_parser().parse_args(base)).train_config()
    for field, (flags, value) in _TRAIN_FLAGS.items():
        config = cli.RunConfig.resolve(cli.build_parser().parse_args(base + flags)).train_config()
        assert getattr(default, field) != value
        assert getattr(config, field) == value, field


@pytest.mark.parametrize("flag, text", [
    ("--sigmas", "1,,2"),
    ("--sigmas", "1,2,"),
    ("--sigmas", ","),
    ("--sigma-t", "1,2,,3"),
    ("--sigma-t", " "),
], ids=["sigmas-inner", "sigmas-trailing", "sigmas-only-comma", "sigma-t-inner", "sigma-t-blank"])
def test_bandwidth_list_with_an_empty_item_exits_one(tmp_path, capsys, monkeypatch, flag, text):
    """An empty item is an error, not a kernel level fewer."""
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    out = tmp_path / "m.ckpt"
    code = main(["train", "--detections", "d.jsonl", "--registry", "r.json", "--qa", "q.jsonl",
                 "--out", str(out), flag, text])
    assert "bad bandwidth list" in _one_error(capsys, code)
    assert not out.exists()


def test_bad_json_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["synth", "--spec", str(cfg), "--out-detections", str(tmp_path / "d.jsonl")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"


# bytes that no JSON input takes, and their errors: not UTF-8, nesting 100,000 deep, not
# JSON, and an integer of more digits than Python converts
_UNREADABLE = {
    "not-utf8": (b'{"a": "\xff"}', "not UTF-8: invalid start byte"),
    "deep": (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
    "broken": (b"{broken", "invalid JSON: Expecting property name enclosed in double quotes"),
    "long-int": (b'{"a": ' + b"1" * 5000 + b"}", "invalid JSON: an integer too long to read"),
}


@pytest.mark.parametrize("bad", sorted(_UNREADABLE))
@pytest.mark.parametrize("boundary", ["detections", "qa", "registry", "config", "spec", "graph",
                                      "checkpoint"])
def test_unreadable_json_input_exits_one(tmp_path, boundary, bad):
    """Every JSON input reads its bytes by one rule, and each fault is a parse error, naming
    its line where that is known; a checkpoint whose header is not text is not a checkpoint."""
    data, message = _UNREADABLE[bad]
    reg, ckpt, bad_file, out = (tmp_path / name for name in ("reg.json", "m.ckpt", "bad", "out"))
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl",
                      [detection(frame=f, class_id=sw.STATIC_CLASS_BASE) for f in range(3)])
    qa = write_jsonl(tmp_path / "qa.jsonl",
                     [{"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": 0}] * 3)
    save_model(ckpt, init_model(ModelConfig(d_o=2, d_a=2, vocab_size=12), seed=0), seed=0, step=3)
    located = bad in ("not-utf8", "broken")  # a whole file's fault has a known line
    if boundary in ("detections", "qa"):
        lines = (det if boundary == "detections" else qa).read_bytes().splitlines(keepends=True)
        bad_file.write_bytes(lines[0] + data + b"\n" + lines[2])
        line = 2
    elif boundary == "checkpoint":
        bad_file.write_bytes(data + b"\n" + ckpt.read_bytes().split(b"\n", 1)[1])
        line = 1 if located else None
    else:
        bad_file.write_bytes(b"\n" + data)  # the fault on the second line
        line = 2 if located else None
    kind, message = "parse", message if line is None else f"line {line}: {message}"
    if boundary == "checkpoint" and bad == "not-utf8":
        kind, message = "validation", f"{bad_file}: not a prism25d-checkpoint file"
    argv = {
        "detections": ["ingest", "--in", bad_file, "--registry", reg, "--out", out],
        "qa": ["train", "--detections", det, "--registry", reg, "--qa", bad_file, "--out", out],
        "registry": ["ingest", "--in", det, "--registry", bad_file, "--out", out],
        "config": ["ingest", "--in", det, "--registry", reg, "--out", out, "--config", bad_file],
        "spec": ["synth", "--spec", bad_file, "--out-detections", out],
        "graph": ["compact", "--in", bad_file, "--out", out],
        "checkpoint": ["eval", "--detections", det, "--registry", reg, "--qa", qa, "--model", bad_file,
                       "--out", out],
    }[boundary]
    assert _cli_error(argv) == (1, {"error": kind, "message": message})
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"heads": "x"},
    {"gamma": "0.5"},
    [1, 2],
    {"sigmas": "abc"},
    {"sigmas": [0.1, "1"]},
    {"delta": 2.5},
    {"delta": True},
    {"lr": float("nan")},
    {"combine": 1},
    {"gamma": None},
    {"sigmas": None},
], ids=["string-int", "string-float", "not-an-object", "string-list", "list-with-string",
        "float-int", "bool-int", "nan", "int-bool", "null-float", "null-list"])
def test_bad_config_value_exits_one(tmp_path, capsys, monkeypatch, config):
    monkeypatch.setattr(cli, "load_detection_groups", _pipeline_must_not_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["ingest", "--in", str(tmp_path / "d.jsonl"), "--registry", str(tmp_path / "r.json"),
                 "--out", str(tmp_path / "g.json"), "--config", str(cfg)])
    _one_error(capsys, code)


@pytest.mark.parametrize("text, kind", [
    ('{"seed": -3}', "validation"),
    ('{"sigmas": [1, 1e400]}', "parse"),  # JSON reads 1e400 as infinity, which no number field takes
], ids=["negative-seed", "infinite-sigma"])
def test_out_of_range_train_config_file_exits_one(tmp_path, capsys, text, kind):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=3)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa, "--out", str(out),
                 "--epochs", "1", "--config", str(cfg)])
    _one_error(capsys, code, kind=kind)
    assert not out.exists()


def test_config_null_where_the_default_is_null(tmp_path):
    det = write_jsonl(tmp_path / "d.jsonl", [detection(class_id=sw.STATIC_CLASS_BASE)])
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_frames": None, "fx": None, "sigma_t": None, "gamma": 0.5}))
    assert main(["ingest", "--in", str(det), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json"), "--config", str(cfg)]) == 0


_FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, "x", [], [1.0], {"a": 1}, [[1.0]]]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**200),
)


@st.composite
def _mutated_detections(draw):
    """A valid four-line detection file over three frames, one line changed in one way."""
    recs = [
        detection(frame=0, class_id=sw.STATIC_CLASS_BASE),
        detection(frame=1, class_id=sw.STATIC_CLASS_BASE, bbox=(11.0, 10.0, 51.0, 50.0)),
        detection(frame=2, class_id=sw.STATIC_CLASS_BASE, bbox=(12.0, 10.0, 52.0, 50.0)),
        detection(frame=1, class_id=sw.DYNAMIC_CLASS_BASE, bbox=(60.0, 60.0, 90.0, 90.0),
                  motion=(0.5, 0.5)),
    ]
    rec = recs[draw(st.integers(0, len(recs) - 1))]
    change = draw(st.sampled_from(["drop", "set", "set-item", "negative-depth",
                                   "degenerate-bbox", "huge-frame"]))
    if change == "drop":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif change == "set":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(_FUZZ_VALUES)
    elif change == "set-item":
        key = draw(st.sampled_from([k for k in ("bbox", "feature", "motion_feature") if rec[k]]))
        rec[key][draw(st.integers(0, len(rec[key]) - 1))] = draw(_FUZZ_VALUES)
    elif change == "negative-depth":
        rec["depth"] = -draw(st.floats(min_value=0.0, max_value=1e300))
    elif change == "degenerate-bbox":
        x1, y1, x2, y2 = rec["bbox"]
        rec["bbox"] = draw(st.sampled_from([[x2, y1, x1, y2], [x1, y2, x2, y1], [x1, y1, x1, y2]]))
    else:
        rec["frame_index"] = draw(st.integers(min_value=2**31, max_value=2**200))
    return "".join(json.dumps(r) + "\n" for r in recs)


def _reject_constant(token):
    raise AssertionError(f"written file holds {token}")


def _cli_error(argv):
    """Exit code and JSON error (None when there is none) of one in-process run, after
    checking the error contract: exit 0, 1 or 2, and at most one stderr line, a JSON error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(json.loads(line)["error"] for line in lines)
    return code, json.loads(lines[0]) if lines else None


def _run_cli(argv):
    """Exit code of one in-process run, after checking the error contract (`_cli_error`)."""
    return _cli_error(argv)[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_detections())
def test_ingest_fuzzed_detection_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sw.default_registry().save(tmp / "reg.json")
        (tmp / "d.jsonl").write_text(text, encoding="utf-8")
        _run_cli(["ingest", "--in", str(tmp / "d.jsonl"), "--registry", str(tmp / "reg.json"),
                  "--out", str(tmp / "g.json")])
        if (tmp / "g.json").exists():
            json.loads((tmp / "g.json").read_text(encoding="utf-8"), parse_constant=_reject_constant)


@st.composite
def _spliced_detections(draw):
    """A valid three-line detection file with random bytes, no line feed among them,
    spliced into one line: the file, and that line's number and bytes."""
    lines = [json.dumps(detection(frame=f, class_id=sw.STATIC_CLASS_BASE)).encode() for f in range(3)]
    k = draw(st.integers(0, len(lines) - 1))
    at = draw(st.integers(0, len(lines[k])))
    splice = draw(st.binary(min_size=1, max_size=8)).replace(b"\n", b"\xff")
    lines[k] = lines[k][:at] + splice + lines[k][at:]
    return b"".join(line + b"\n" for line in lines), k + 1, lines[k]


def _is_json(data):
    try:
        json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return False
    return True


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_spliced_detections())
def test_ingest_detection_line_with_spliced_bytes(case):
    """A line that is not UTF-8 JSON is a parse error naming it; any other keeps the contract."""
    data, lineno, line = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sw.default_registry().save(tmp / "reg.json")
        (tmp / "d.jsonl").write_bytes(data)
        code, error = _cli_error(["ingest", "--in", tmp / "d.jsonl", "--registry", tmp / "reg.json",
                                  "--out", tmp / "g.json"])
    if not _is_json(line):
        assert code == 1 and error["error"] == "parse" and error["message"].startswith(f"line {lineno}: ")


def _outcome(build):
    """None when `build()` returns, else the class and message, without its line prefix, of
    the PrismError it raises; numpy overflow stays silent, as in `main`."""
    try:
        with np.errstate(all="ignore"):
            build()
    except PrismError as exc:
        return type(exc), re.sub(r"^line \d+: ", "", str(exc))
    return None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_detections())
def test_in_memory_ingest_agrees_with_the_file(text):
    registry = sw.default_registry()
    records = [json.loads(line) for line in text.splitlines()]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        registry.save(tmp / "reg.json")
        (tmp / "d.jsonl").write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", "--in", str(tmp / "d.jsonl"), "--registry", str(tmp / "reg.json"),
                         "--out", str(tmp / "g.json")])
        with mock.patch.object(schema, "_BLOCK_LINES", 2):  # the file in two blocks
            from_file = _outcome(lambda: load_detection_groups(tmp / "d.jsonl", registry))
    in_memory = _outcome(lambda: graphs_from_records(records, registry))
    assert in_memory == from_file
    assert (code == 0) == (in_memory is None)
    if in_memory is not None:
        error = json.loads(err.getvalue())
        assert re.sub(r"^line \d+: ", "", error["message"]) == in_memory[1]
        assert error["error"] == ("parse" if in_memory[0] is ParseError else "validation")


def test_in_memory_ingest_agrees_with_the_file_under_given_intrinsics(tmp_path):
    """`graphs_from_records` and `load_detection_groups` lift by the intrinsics they are given,
    as `ingest --fx --fy --cx --cy` does; a focal length small enough to overflow a lifted
    centroid is the same error each way."""
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=2, qa=False, n_frames=3)
    registry, out = sw.default_registry(), tmp_path / "g.json"
    records = [json.loads(line) for line in Path(det).read_text(encoding="utf-8").splitlines()]
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(out), "--no-register",
                 "--fx", "300", "--fy", "200", "--cx", "100", "--cy", "140"]) == 0
    given = Intrinsics(fx=300.0, fy=200.0, cx=100.0, cy=140.0)
    in_memory = graphs_from_records(records, registry, intrinsics=given)
    assert in_memory == load_detection_groups(det, registry, intrinsics=given) == load_corpus(out)
    assert in_memory != graphs_from_records(records, registry)
    tiny = Intrinsics(fx=1e-308, fy=1e-308, cx=0.0, cy=0.0)
    fault = _outcome(lambda: graphs_from_records(records, registry, intrinsics=tiny))
    assert fault == _outcome(lambda: load_detection_groups(det, registry, intrinsics=tiny))
    assert fault is not None and fault[1].startswith("lifted centroid [")


@functools.cache
def _graph_file_text():
    """An ingested two-video graph file, whose static nodes merge when compacted."""
    with tempfile.TemporaryDirectory() as tmp:
        det, reg, _ = _synth_corpus(Path(tmp), n_worlds=2, qa=False, n_frames=3, n_static=3,
                                    n_dynamic=1)
        assert _run_cli(["ingest", "--in", det, "--registry", reg, "--out", f"{tmp}/g.json"]) == 0
        return Path(f"{tmp}/g.json").read_text(encoding="utf-8")


def _mutate_field(draw, obj):
    """Change one field of the JSON object in one way: drop it, set it, or set one of its items."""
    key = draw(st.sampled_from(sorted(obj)))
    change = draw(st.sampled_from(["drop", "set", "set-item"]))
    if change == "drop":
        del obj[key]
    elif change == "set" or not isinstance(obj[key], list) or not obj[key]:
        obj[key] = draw(_FUZZ_VALUES)
    else:
        obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(_FUZZ_VALUES)


@st.composite
def _mutated_graph_file(draw):
    """The ingested graph file, one field of one node changed in one way."""
    obj = json.loads(_graph_file_text())
    nodes = obj["graphs"][draw(st.integers(0, 1))]["nodes"]
    _mutate_field(draw, nodes[draw(st.integers(0, len(nodes) - 1))])
    return json.dumps(obj)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_graph_file())
def test_compact_fuzzed_graph_node(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "g.json").write_text(text, encoding="utf-8")
        _run_cli(["compact", "--in", str(tmp / "g.json"), "--out", str(tmp / "c.json")])
        if (tmp / "c.json").exists():
            json.loads((tmp / "c.json").read_text(encoding="utf-8"), parse_constant=_reject_constant)


@st.composite
def _mutated_world_spec(draw):
    """A valid world spec, one field (of the spec, its camera or its noise) changed in one way."""
    spec = json.loads(json.dumps(_world_json(1, n_frames=3, n_static=3, n_dynamic=1,
                                             camera=sw.CameraSpec("translating", (0.02, 0.0, 0.0)))))
    part = draw(st.sampled_from([None, "camera", "noise"]))
    _mutate_field(draw, spec if part is None else spec[part])
    return json.dumps(spec)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated_world_spec())
def test_synth_fuzzed_world_spec(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spec.json").write_text(text, encoding="utf-8")
        _run_cli(["synth", "--spec", str(tmp / "spec.json"), "--out-detections", str(tmp / "d.jsonl")])
        if (tmp / "d.jsonl").exists():
            for line in (tmp / "d.jsonl").read_text(encoding="utf-8").splitlines():
                json.loads(line, parse_constant=_reject_constant)


def test_help_documents_flags(capsys):
    for args, expect in ((["--help"], "synth"), (["train", "--help"], "--sigmas")):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert expect in capsys.readouterr().out


# ingest -> compact over moving cameras, pinned by the digest of both graph files:
# every camera kind, each once without and once with box and depth jitter
REGISTRATION_SHA256 = "d57e4ad8425fcb394e29329d4f078b5ecd659271f83741e2e9ae46ac80e4b231"


def _moving_graph_files(tmp_path):
    """The detections of the registration pin's six worlds, ingested and then compacted."""
    worlds = [
        _world_json(700 + i, n_frames=8, n_static=5, n_dynamic=2,
                    camera=sw.CameraSpec(**camera), noise=sw.NoiseSpec(**noise))
        for i, (camera, noise) in enumerate(
            (camera, noise)
            for camera in ({"kind": "stationary"}, {"kind": "translating", "velocity": (0.04, 0.015, 0.01)},
                           {"kind": "orbiting", "angular_rate": 0.02})
            for noise in ({}, {"bbox_px": 0.8, "depth": 0.03})
        )
    ]
    det, reg = str(tmp_path / "d.jsonl"), str(tmp_path / "reg.json")
    assert main(["synth", "--spec", _spec_file(tmp_path, worlds), "--out-detections", det,
                 "--out-registry", reg]) == 0
    graphs, compacted = tmp_path / "g.json", tmp_path / "c.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graphs)]) == 0
    assert main(["compact", "--in", str(graphs), "--out", str(compacted)]) == 0
    return graphs, compacted


def test_registration_bytes_are_pinned(tmp_path):
    graphs, compacted = _moving_graph_files(tmp_path)
    digest = hashlib.sha256(graphs.read_bytes() + compacted.read_bytes()).hexdigest()
    assert digest == REGISTRATION_SHA256


# compact of the compacted file above, and of a file compacted at gamma 0.95, whose
# nodes, each holding several observations, merge further at the default gamma; and
# the kernel bundles of the ingested and the compacted graphs
RECOMPACTED_SHA256 = "9f17cac4260521bbd30fb787d6c222f368f332b357b3a9202bf1aaea8c17c8b6"
BUNDLES_SHA256 = "44be390fb8d842da0facc02419c43ec5ff7702d1d1bf020e7b093f8973bb15be"


def test_recompaction_and_bundle_bytes_are_pinned(tmp_path):
    from prism25d.attention import DEFAULT_BANDWIDTHS, build_bundles

    graphs, compacted = _moving_graph_files(tmp_path)
    strict, again, strict_again = tmp_path / "s.json", tmp_path / "cc.json", tmp_path / "sc.json"
    assert main(["compact", "--in", str(compacted), "--out", str(again)]) == 0
    assert main(["compact", "--in", str(graphs), "--out", str(strict), "--gamma", "0.95"]) == 0
    assert main(["compact", "--in", str(strict), "--out", str(strict_again)]) == 0
    files = again.read_bytes() + strict.read_bytes() + strict_again.read_bytes()
    assert hashlib.sha256(files).hexdigest() == RECOMPACTED_SHA256
    digest = hashlib.sha256()
    levels = tuple(zip(DEFAULT_BANDWIDTHS, DEFAULT_BANDWIDTHS))
    for path in (graphs, compacted):
        bundles = build_bundles({g.video_id: g for g in load_corpus(path)}, levels)
        for vid, b in bundles.items():
            for a in (b.static_cols, b.dynamic_cols, b.perm, *(s.data for s in b.smax)):
                digest.update(f"{vid} {a.shape} {a.dtype.str}".encode() + a.tobytes())
    assert digest.hexdigest() == BUNDLES_SHA256
