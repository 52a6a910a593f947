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
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import prism25d
from prism25d import cli
from prism25d.cli import main
from prism25d.compact import MatchParams
from prism25d.errors import ParseError, PrismError
from prism25d.graph import DEFAULT_INTRINSICS, graphs_from_records, load_corpus, load_detection_groups
from prism25d.qa import ModelConfig, TrainConfig, init_model, save_model
from prism25d import synthworld as sw

from helpers import OVERFLOW_DETECTIONS, OVERFLOW_REGISTRY, detection, write_jsonl


def _spec_file(tmp_path, worlds):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"worlds": worlds} if len(worlds) > 1 else worlds[0]))
    return str(path)


def _world_json(seed, **kw):
    obj = sw.WorldSpec(seed=seed, video_id=f"w{seed}", **kw).to_json()
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


def test_stats_subcommand_prints_and_writes(tmp_path, capsys):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=2, qa=False, n_frames=5, n_static=4, n_dynamic=1)
    graph_file = str(tmp_path / "g.json")
    compact_file = str(tmp_path / "c.json")
    main(["ingest", "--in", det, "--registry", reg, "--out", graph_file])
    main(["compact", "--in", graph_file, "--out", compact_file])
    capsys.readouterr()
    out_file = str(tmp_path / "st.json")
    assert main(["stats", "--before", graph_file, "--after", compact_file, "--out", out_file]) == 0
    printed = capsys.readouterr().out
    assert "reduction_pct" in printed
    stats = json.loads((tmp_path / "st.json").read_text())
    assert stats["reduction_pct"] == pytest.approx(100 * (1 - (4 + 5) / (5 * 5)))


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
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=2, n_frames=4, n_static=5, n_dynamic=2)
    init_ckpt = tmp_path / "init.ckpt"
    final_ckpt = tmp_path / "final.ckpt"
    assert main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(final_ckpt), "--save-init", str(init_ckpt),
                 "--lr", "0.0", "--epochs", "2", "--latent", "16", "--heads", "2"]) == 0
    assert init_ckpt.read_bytes() == final_ckpt.read_bytes()


def test_diverged_train_writes_nothing(tmp_path, capsys, monkeypatch):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=4, n_static=5, n_dynamic=2)
    train = cli.train

    def diverging_train(*args, **kwargs):
        model, metrics = train(*args, **kwargs)
        model.named_parameters()[3][1].data[0] = np.inf
        return model, metrics

    monkeypatch.setattr(cli, "train", diverging_train)
    outs = [tmp_path / name for name in ("m.ckpt", "init.ckpt", "metrics.json")]
    capsys.readouterr()
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(outs[0]), "--save-init", str(outs[1]), "--metrics", str(outs[2]),
                 "--epochs", "1", "--latent", "16", "--heads", "2"])
    assert "holds a non-finite value" in _one_error(capsys, code, kind="validation")
    assert not any(path.exists() for path in outs)


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


def test_train_checks_the_vocabulary_size_before_the_qa_file(tmp_path, capsys, monkeypatch):
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1)
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["train", "--detections", det, "--registry", reg, "--qa", qa,
                 "--out", str(tmp_path / "m.ckpt"), "--vocab", "0"])
    assert _one_error(capsys, code, kind="validation") == "vocab_size must be at least 1, got 0"
    assert not (tmp_path / "m.ckpt").exists()


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


@pytest.mark.parametrize("change", [
    lambda head: head["config"].pop("heads"),
    lambda head: head["config"].update(latent_dim="32"),
    lambda head: head["config"].update(sigma_s=["a"]),
    lambda head: head.update(config=[]),
    lambda head: head.update(seed="x"),
    lambda head: head.pop("step"),
    lambda head: head.update(params=7),
    lambda head: head.update(seed=-1),
    lambda head: head.update(step=-1),
    lambda head: head["config"].update(feature_hidden=[]),
    lambda head: head["config"].update(feature_hidden=[-1]),
], ids=["config-no-heads", "config-string-latent", "config-string-sigma", "config-not-an-object",
        "string-seed", "no-step", "params-not-a-list", "negative-seed", "negative-step",
        "config-feature-hidden", "checkpoint-negative-hidden-width"])
def test_bad_checkpoint_header_exits_one(tmp_path, capsys, monkeypatch, change):
    """A header an older build wrote, with a `feature_hidden` config field, is a parse error too."""
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, init_model(ModelConfig(d_o=2, d_a=2, vocab_size=12), seed=0), seed=0, step=3)
    _edit_checkpoint_header(ckpt, change)
    qa = write_jsonl(tmp_path / "qa.jsonl",
                     [{"video_id": "v", "question": [1], "candidates": [[2], [3]], "gt": 0}])
    monkeypatch.setattr(cli, "_pipeline_graphs", _pipeline_must_not_run)
    code = main(["eval", "--detections", "d.jsonl", "--registry", "r.json", "--qa", str(qa),
                 "--model", str(ckpt), "--out", str(tmp_path / "e.json")])
    _one_error(capsys, code)
    assert not (tmp_path / "e.json").exists()


def _extra_entry(ckpt):
    _edit_checkpoint_header(ckpt, lambda head: head["params"].append({"name": "bogus", "shape": [1]}))
    ckpt.write_bytes(ckpt.read_bytes() + bytes(8))


def _repeated_entry(ckpt):
    _edit_checkpoint_header(ckpt, lambda head: head["params"][1].update(name=head["params"][0]["name"]))


def _nan_weight(ckpt):
    data = ckpt.read_bytes()
    start = data.index(b"\n") + 1
    ckpt.write_bytes(data[:start] + struct.pack("<d", float("nan")) + data[start + 8:])


@pytest.mark.parametrize("change, message", [
    (_extra_entry, "checkpoint manifest entry"),
    (_repeated_entry, "checkpoint manifest entry 1 is 'mlp_s.w0', the model's is 'mlp_s.b0'"),
    (_nan_weight, "holds a non-finite value"),
], ids=["extra-entry", "repeated-entry", "nan-weight"])
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


@pytest.mark.parametrize("command, change", [
    ("train", ["--latent", "0"]),
    ("train", ["--batch", "0"]),
    ("train", ["--fx", "0", "--fy", "1", "--cx", "0", "--cy", "0"]),
    ("train", ["--epochs", "-1"]),
    ("train", ["--standard-layers", "-1"]),
    ("train", ["--heads", "3", "--latent", "32"]),
    ("train", ["--sigmas", "0,1"]),
    ("train", ["--sigmas", "0.1,1", "--sigma-t", "1"]),
    ("train", ["--lr", "-1"]),
    ("train", ["--sigmas", "1,inf"]),
    ("train", ["--sigma-t", "1,1,1,1e400"]),
    ("train", ["--seed", "-3"]),
    ("eval", {"latent_dim": 0}),
    ("eval", {"d_o": 0}),
], ids=["zero-latent", "zero-batch", "zero-focal-length", "negative-epochs",
        "negative-standard-layers", "heads-not-dividing-latent", "zero-sigma",
        "sigma-t-length", "negative-lr", "infinite-sigma", "infinite-sigma-t", "negative-seed",
        "checkpoint-zero-latent", "checkpoint-zero-d_o"])
def test_out_of_range_config_exits_one(tmp_path, capsys, command, change):
    """`change` is the train flags, or the checkpoint config fields eval reads."""
    det, reg, qa = _synth_corpus(tmp_path, n_worlds=1, n_frames=3)
    out, init = tmp_path / "out", tmp_path / "init.ckpt"
    args = [command, "--detections", det, "--registry", reg, "--qa", qa, "--out", str(out)]
    if command == "train":
        args += ["--save-init", str(init), "--epochs", "1", *change]
    else:
        ckpt = tmp_path / "bad.ckpt"
        save_model(ckpt, init_model(ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE), seed=0),
                   seed=0, step=0)
        _edit_checkpoint_header(ckpt, lambda head: head["config"].update(change))
        args += ["--model", str(ckpt)]
    capsys.readouterr()
    _one_error(capsys, main(args), kind="validation")
    assert not out.exists() and not init.exists()


@pytest.mark.parametrize("registry", [
    {"kinds": []},
    {"classes": [{"id": 1, "name": "a"}]},
    {"classes": [{"id": "1", "name": "a", "kind": "static"}]},
    [],
], ids=["no-classes", "no-kind", "string-id", "not-an-object"])
def test_bad_registry_exits_one(tmp_path, capsys, registry):
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps(registry))
    det = tmp_path / "d.jsonl"
    det.write_text(json.dumps(detection(class_id=sw.STATIC_CLASS_BASE)) + "\n")
    code = main(["ingest", "--in", str(det), "--registry", str(reg),
                 "--out", str(tmp_path / "g.json")])
    _one_error(capsys, code)
    assert not (tmp_path / "g.json").exists()


def _shift_frames(graph, by):
    """Move every frame index of a graph-file body by `by`, listings and node sources alike."""
    for n in graph["nodes"]:
        n["source_frames"] = [f + by for f in n["source_frames"]]
    for listing in graph["frames"]:
        listing["frame_index"] += by


def _degenerate_box_then_bad_time(obj):
    """A degenerate box at node 0 and, on node 3, a timestamp outside [0, 1]."""
    nodes = obj["graphs"][0]["nodes"]
    nodes[0]["bbox"] = [50.0, 10.0, 10.0, 50.0]
    nodes[3]["timestamps"] = [1.5] * len(nodes[3]["timestamps"])


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
    (_degenerate_box_then_bad_time, "validation", "video 'w100': node 0: degenerate bbox"),
], ids=["no-bbox", "nan-centroid", "string-node-id", "graphs-not-a-list", "three-value-bbox",
        "second-video-no-bbox", "negative-max-frames", "negative-frames", "first-bad-node"])
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
], ids=["no-frames", "unlisted-node", "listed-twice", "repeated-frame"])
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


@pytest.mark.parametrize("command", ["compact", "stats"])
def test_graph_file_repeating_a_video_exits_one(tmp_path, capsys, command):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=1, qa=False, n_frames=3)
    graph_file = tmp_path / "g.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    body = json.loads(graph_file.read_text())
    header = {key: body.pop(key) for key in ("format", "version", "registry_digest")}
    graph_file.write_text(json.dumps({**header, "graphs": [body, body]}))
    capsys.readouterr()
    out = tmp_path / "out.json"
    if command == "compact":
        code = main(["compact", "--in", str(graph_file), "--out", str(out)])
    else:
        code = main(["stats", "--before", str(graph_file), "--after", str(graph_file), "--out", str(out)])
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


@pytest.mark.parametrize("spec, where", [
    ({"seed": "x", "video_id": "w"}, ""),
    ({"seed": True, "video_id": "w"}, ""),
    ({"seed": 1, "video_id": "w", "n_frames": 2.7}, ""),
    ({"seed": 1, "video_id": "w", "camera": {"kind": "translating", "velocity": [float("nan"), 0, 0]}},
     ""),
    ({"seed": 1, "video_id": "w", "image_size": ["a", 3]}, ""),
    ([{"seed": 1, "video_id": "w"}], ""),
    ({"seed": 1, "video_id": "w", "n_frame": 3}, ""),
    ({"worlds": [{"seed": 1, "video_id": "a"}, {"seed": "x", "video_id": "b"}]},
     "worlds[1]: seed must be an integer"),
], ids=["string-seed", "bool-seed", "float-frames", "nan-velocity", "string-image-size",
        "top-level-list", "misspelt-key", "second-world-string-seed"])
def test_bad_world_spec_exits_one(tmp_path, capsys, spec, where):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(path), "--out-detections", str(tmp_path / "d.jsonl")])
    assert _one_error(capsys, code).startswith(where)
    assert not (tmp_path / "d.jsonl").exists()


def test_synth_writes_nothing_when_a_world_fails(tmp_path, capsys):
    spec = _spec_file(tmp_path, [_world_json(1, n_frames=3), _world_json(2, static_separation=1e9)])
    code = main(["synth", "--spec", spec, "--out-detections", str(tmp_path / "d.jsonl")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not (tmp_path / "d.jsonl").exists()


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
    ("compact", ["--image-w", "64"]),
    ("compact", ["--image-h", "64"]),
    ("compact", ["--fx", "-5"]),
    ("compact", ["--fy", "100"]),
    ("compact", ["--cx", "0"]),
    ("compact", ["--cy", "0"]),
    ("ingest", ["--delta", "0"]),
], ids=["compact-max-frames", "compact-image-w", "compact-image-h", "compact-fx", "compact-fy",
        "compact-cx", "compact-cy", "ingest-delta"])
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
OVERFLOW_GRAPH_SHA256 = "5227db958516a6e270a1193cde4048a86287dcf143624e282bb0fe44c1a2f482"


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


def test_ingest_checks_gamma_when_every_video_has_one_frame(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    sw.default_registry().save(reg)
    det = write_jsonl(tmp_path / "d.jsonl", [detection(video_id=v, class_id=sw.STATIC_CLASS_BASE)
                                              for v in ("a", "b")])
    out = tmp_path / "g.json"
    code = main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(out), "--gamma", "5"])
    assert "gamma must lie in (0, 1)" in _one_error(capsys, code, kind="validation")
    assert not out.exists()


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
    assert (run.lr, run.batch) == (train.lr, train.batch_size)
    assert run.intrinsics() == DEFAULT_INTRINSICS


# each ModelConfig field but the inferred widths, with train flags that set it off its default
_MODEL_FLAGS = {
    "vocab_size": (["--vocab", "50"], 50),
    "latent_dim": (["--latent", "16"], 16),
    "heads": (["--heads", "2"], 2),
    "sigma_s": (["--sigmas", "0.5,5"], (0.5, 5.0)),
    "sigma_t": (["--sigma-t", "1,2,3,4"], (1.0, 2.0, 3.0, 4.0)),
    "n_standard_layers": (["--standard-layers", "2"], 2),
    "combine": (["--no-combine"], False),
}


def test_every_model_config_field_has_a_train_flag(registry):
    """No config knob without a flag: each field reaches the model config from `train`'s flags."""
    assert set(_MODEL_FLAGS) == {f.name for f in fields(ModelConfig)} - {"d_o", "d_a"}
    graphs = {"v": graphs_from_records([detection()], registry)[0]}
    base = ["train", "--detections", "d", "--registry", "r", "--qa", "q", "--out", "o"]
    default = cli._model_config(cli.RunConfig.resolve(cli.build_parser().parse_args(base)), graphs)
    for field, (flags, value) in _MODEL_FLAGS.items():
        args = cli.build_parser().parse_args(base + flags)
        config = cli._model_config(cli.RunConfig.resolve(args), graphs)
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
    monkeypatch.setattr(cli, "_load_graphs", _pipeline_must_not_run)
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
    cfg.write_text(json.dumps({"max_frames": None, "fx": None, "sigma_t": None, "image_w": 256}))
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


def _run_cli(argv):
    """Exit code of one in-process run, after checking the error contract: exit 0, 1 or 2,
    and at most one stderr line, a JSON error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(json.loads(line)["error"] for line in lines)
    return code


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
        from_file = _outcome(lambda: load_detection_groups(tmp / "d.jsonl", registry))
    in_memory = _outcome(lambda: graphs_from_records(records, registry))
    assert in_memory == from_file
    assert (code == 0) == (in_memory is None)
    if in_memory is not None:
        error = json.loads(err.getvalue())
        assert re.sub(r"^line \d+: ", "", error["message"]) == in_memory[1]
        assert error["error"] == ("parse" if in_memory[0] is ParseError else "validation")


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
REGISTRATION_SHA256 = "5a33e20b3f673a8d21a8adadddabea3a551a16de0b2f83f5a4f6ab11b64e67cc"


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
RECOMPACTED_SHA256 = "1b09b3f330433488c6958952a96d1341ffc1b39299c5ccf4a28c0b1183c61ca6"
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
