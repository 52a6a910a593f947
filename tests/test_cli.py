import json

import pytest

from prism25d.cli import main
from prism25d.graph import load_corpus, load_graph
from prism25d import synthworld as sw

from helpers import detection


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
    g = load_graph(graph_file)  # flat single-video format
    assert g.video_id == "w7"
    assert load_corpus(graph_file)[0].equals(g)


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
    assert obj["error"] == "parse" and obj["message"].startswith("line 2:")
    assert field in obj["message"]
    assert not (tmp_path / "g.json").exists()


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


def test_bad_json_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["synth", "--spec", str(cfg), "--out-detections", str(tmp_path / "d.jsonl")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "parse"


def test_help_documents_flags(capsys):
    for args, expect in ((["--help"], "synth"), (["train", "--help"], "--sigmas")):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert expect in capsys.readouterr().out
