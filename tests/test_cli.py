import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prism25d import cli
from prism25d.cli import main
from prism25d.compact import MatchParams
from prism25d.graph import DEFAULT_INTRINSICS, load_corpus
from prism25d.qa import ModelConfig, TrainConfig, init_model, save_model
from prism25d import synthworld as sw

from helpers import detection, write_jsonl


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
], ids=["no-gt", "string-gt", "string-token", "float-token", "candidates-not-a-list",
        "gt-out-of-range", "one-candidate", "empty-question"])
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


@pytest.mark.parametrize("change", [
    lambda head: head["config"].pop("heads"),
    lambda head: head["config"].update(latent_dim="32"),
    lambda head: head["config"].update(sigma_s=["a"]),
    lambda head: head.update(config=[]),
    lambda head: head.update(seed="x"),
    lambda head: head.pop("step"),
    lambda head: head.update(params=7),
], ids=["config-no-heads", "config-string-latent", "config-string-sigma", "config-not-an-object",
        "string-seed", "no-step", "params-not-a-list"])
def test_bad_checkpoint_header_exits_one(tmp_path, capsys, monkeypatch, change):
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
    ("eval", {"latent_dim": 0}),
    ("eval", {"d_o": 0}),
    ("eval", {"feature_hidden": [-1]}),
], ids=["zero-latent", "zero-batch", "zero-focal-length", "negative-epochs",
        "negative-standard-layers", "heads-not-dividing-latent", "zero-sigma",
        "sigma-t-length", "negative-lr", "checkpoint-zero-latent", "checkpoint-zero-d_o",
        "checkpoint-negative-hidden-width"])
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


@pytest.mark.parametrize("change, where", [
    (lambda obj: obj["graphs"][0]["nodes"][0].pop("bbox"), "video 'w100': "),
    (lambda obj: obj["graphs"][0]["nodes"][0]["centroid3d"].__setitem__(2, float("nan")),
     "video 'w100': "),
    (lambda obj: obj["graphs"][1]["nodes"][0].update(node_id="0"), "video 'w101': "),
    (lambda obj: obj.update(graphs=7), ""),
    (lambda obj: obj["graphs"][0]["nodes"][1].update(bbox=[10.0, 10.0, 50.0]), "video 'w100': "),
    (lambda obj: obj["graphs"][1]["nodes"][0].pop("bbox"), "video 'w101': missing field 'bbox'"),
], ids=["no-bbox", "nan-centroid", "string-node-id", "graphs-not-a-list", "three-value-bbox",
        "second-video-no-bbox"])
def test_bad_graph_file_exits_one(tmp_path, capsys, change, where):
    det, reg, _ = _synth_corpus(tmp_path, n_worlds=2, qa=False, n_frames=3)
    graph_file = tmp_path / "g.json"
    assert main(["ingest", "--in", det, "--registry", reg, "--out", str(graph_file)]) == 0
    obj = json.loads(graph_file.read_text())
    change(obj)
    graph_file.write_text(json.dumps(obj))  # json writes NaN
    capsys.readouterr()
    code = main(["compact", "--in", str(graph_file), "--out", str(tmp_path / "c.json"),
                 "--stats", str(tmp_path / "s.json")])
    assert _one_error(capsys, code).startswith(where)
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "s.json").exists()


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
