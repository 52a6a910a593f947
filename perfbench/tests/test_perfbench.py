"""The benchmark at tiny sizes: every workload runs clean, and every check catches a planted fault.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from prism25d import numcore
from prism25d import qa as qa_module
from prism25d.cli import main as cli_main

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "graphs": workloads.Graphs(chunks=1, videos_per_chunk=6),
    "train": workloads.Train(train_worlds=8, val_worlds=2, epochs=2),
    "eval-long": workloads.EvalLong(chunks=1, videos_per_chunk=4),
}


def _prepared(name: str, tmp_path: Path):
    """Set up a tiny workload and run one round of its commands in this process."""
    prep = TINY[name].setup(tmp_path, seed=0)
    for op in prep.ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(op.argv) == 0, op.argv
    assert TINY[name].check(prep) == []
    return prep


def _rewrite(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def _fails(name: str, prep, needle: str) -> None:
    failures = TINY[name].check(prep)
    assert any(needle in f for f in failures), failures


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_clean(name, trace, tmp_path):
    result = run.run_workload(TINY[name], seed=0, seconds=0.01, trace=trace, out=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = (tmp_path / f"trace-{name}.jsonl").read_text().splitlines()
        assert spans and all({"name", "start", "end", "parent"} <= set(json.loads(s)) for s in spans)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "graphs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- graphs -----------------------------------------------------------------------


def _clean_video(prep) -> int:
    videos = prep.truth["chunks"][0]["videos"]
    return next(i for i, v in enumerate(videos) if not v["jittered"] and i % 3 == 1)


def test_graphs_swapped_merge_classes(tmp_path):
    prep = _prepared("graphs", tmp_path)
    k = _clean_video(prep)

    def swap(obj):
        ids = obj["graphs"][k]["frames"][5]["node_ids"]
        ids[0], ids[1] = ids[1], ids[0]

    _rewrite(prep.truth["chunks"][0]["compacted"], swap)
    _fails("graphs", prep, "merge classes differ")


@pytest.mark.parametrize("label, key, node", [("registered", "graphs", 20), ("compacted", "compacted", 0)])
def test_graphs_centroid_off_the_truth(label, key, node, tmp_path):
    prep = _prepared("graphs", tmp_path)
    k = _clean_video(prep)

    def shift(obj):
        obj["graphs"][k]["nodes"][node]["centroid3d"][0] += 1e-4

    _rewrite(prep.truth["chunks"][0][key], shift)
    _fails("graphs", prep, f"{label} centroid")


def test_graphs_node_count_and_reduction(tmp_path):
    prep = _prepared("graphs", tmp_path)
    chunk = prep.truth["chunks"][0]
    _rewrite(chunk["stats"], lambda obj: obj.update(reduction_pct=obj["reduction_pct"] + 0.01))
    _fails("graphs", prep, "reduction_pct")

    def drop_dynamic(obj):
        g = obj["graphs"][_clean_video(prep)]
        gone = g["dynamic_nodes"].pop()
        g["nodes"] = [n for n in g["nodes"] if n["node_id"] != gone]

    _rewrite(chunk["compacted"], drop_dynamic)
    _fails("graphs", prep, "compacted nodes")


def test_graphs_purity_on_jittered_videos(tmp_path):
    prep = _prepared("graphs", tmp_path)
    videos = prep.truth["chunks"][0]["videos"]

    def scramble(obj):
        for k, v in enumerate(videos):
            if v["jittered"]:
                for frame in obj["graphs"][k]["frames"][1:]:
                    frame["node_ids"].reverse()

    _rewrite(prep.truth["chunks"][0]["compacted"], scramble)
    _fails("graphs", prep, "merge purity")


def test_graphs_non_finite_number(tmp_path):
    prep = _prepared("graphs", tmp_path)

    def poison(obj):
        obj["graphs"][0]["nodes"][0]["centroid3d"][2] = float("nan")

    _rewrite(prep.truth["chunks"][0]["graphs"], poison)
    _fails("graphs", prep, "non-finite")


# -- train ------------------------------------------------------------------------


def test_train_losses(tmp_path):
    prep = _prepared("train", tmp_path)
    path = prep.truth["metrics"]
    epochs = json.loads(path.read_text())["epochs"]
    _rewrite(path, lambda obj: obj["epochs"][-1].update(train_loss=epochs[0]["train_loss"] + 1))
    _fails("train", prep, "not below the first")
    _rewrite(path, lambda obj: obj["epochs"][0].update(train_loss=float("inf")))
    _fails("train", prep, "non-finite")


def test_train_gradient_against_central_differences(tmp_path, monkeypatch):
    prep = _prepared("train", tmp_path)
    accum = numcore._accum
    monkeypatch.setattr(numcore, "_accum", lambda t, g: accum(t, g * 1.01))
    _fails("train", prep, "central differences")


def test_train_checkpoint_round_trip_and_steps(tmp_path):
    prep = _prepared("train", tmp_path)
    ckpt = prep.truth["ckpt"]
    original = ckpt.read_bytes()
    ckpt.write_bytes(original + b"\0")
    _fails("train", prep, "byte-identically")
    model, header = qa_module.load_model(ckpt)
    qa_module.save_model(ckpt, model, seed=header["seed"], step=header["step"] + 1)
    _fails("train", prep, "step count")


# -- eval-long --------------------------------------------------------------------


def test_eval_perturbed_weight(tmp_path):
    prep = _prepared("eval-long", tmp_path)
    ckpt = prep.truth["ckpt"]
    model, header = qa_module.load_model(ckpt)
    model.cross.wv.data[0, 0] += 50.0
    qa_module.save_model(ckpt, model, seed=header["seed"], step=header["step"])
    _fails("eval-long", prep, "reference forward")


def test_eval_program_fault(tmp_path, monkeypatch):
    score = qa_module.score_answers
    monkeypatch.setattr(qa_module, "score_answers", lambda fq, answers: score(fq, answers) * -1.0)
    prep = TINY["eval-long"].setup(tmp_path, seed=0)
    for op in prep.ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(op.argv) == 0
    _fails("eval-long", prep, "reference forward")
