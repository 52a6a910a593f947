"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
training-backed criteria share their runs through module-level caches.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from prism25d import numcore as nc
from prism25d.attention import DEFAULT_BANDWIDTHS, kernel_distances, kernel_matrix
from prism25d.cli import main
from prism25d.compact import MatchParams, build_ancestors, compact
from prism25d.graph import graphs_from_records, load_corpus, save_corpus
from prism25d.numcore import Tensor
from prism25d.qa import (
    ModelConfig,
    QaInstance,
    TrainConfig,
    batch_forward,
    build_bundles,
    init_model,
    load_model,
    save_model,
    train,
)
from prism25d.register import estimate_frame_transforms, register_frames
from prism25d import synthworld as sw

from helpers import affine_identity, fd_gradients, generate_world, max_relative_error

REGISTRY = sw.default_registry()
PARAMS = MatchParams(gamma=0.5, delta=3)


def _passline(num, name, detail):
    print(f"criterion {num} ({name}): PASS — {detail}")


def _world_pipeline(spec):
    records, truth = generate_world(spec)
    graph = register_frames(graphs_from_records(records, REGISTRY)[0], gamma=PARAMS.gamma)
    return records, truth, graph


def _computed_classes(graph):
    anc = build_ancestors(graph, PARAMS)
    groups = {}
    for nid, root in anc.items():
        groups.setdefault(root, set()).add(nid)
    return {root: frozenset(v) for root, v in groups.items()}


def _oracle_classes(records, truth):
    return {obj: frozenset(v) for obj, v in sw.oracle_merge(records, truth).items()}


# -- criterion 1: merge-oracle equivalence -----------------------------------------


def test_c1_merge_oracle_equivalence():
    start = time.perf_counter()
    mismatched = 0
    total = 0
    for k in range(200):
        camera = (
            sw.CameraSpec()
            if k % 2 == 0
            else sw.CameraSpec(kind="translating", velocity=(0.05 if k % 4 == 1 else -0.04, 0.01, 0.0))
        )
        spec = sw.WorldSpec(seed=10_000 + k, video_id=f"c1-{k}", n_frames=6,
                            n_static=4, n_dynamic=1, camera=camera)
        records, truth, graph = _world_pipeline(spec)
        got = set(_computed_classes(graph).values())
        want = set(_oracle_classes(records, truth).values())
        for cls in want:
            if cls not in got:
                mismatched += len(cls)
        total += sum(len(c) for c in want)
    elapsed = time.perf_counter() - start
    assert mismatched == 0, f"{mismatched} mismatched detections"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passline(1, "merge-oracle equivalence", f"200 worlds, {total} static detections, 0 mismatches, {elapsed:.1f}s")


# -- criterion 2: noise robustness envelope ------------------------------------------


def test_c2_noise_robustness_envelope():
    hits = 0
    total = 0
    for k in range(50):
        spec = sw.WorldSpec(
            seed=20_000 + k, video_id=f"c2-{k}", n_frames=8, n_static=5, n_dynamic=1,
            extent_range=(1.4, 1.6),  # ~64 px boxes at the scene depth
            noise=sw.NoiseSpec(bbox_px=2.0),
        )
        records, truth, graph = _world_pipeline(spec)
        got = _computed_classes(graph)
        by_det = {}
        for cls in got.values():
            for det in cls:
                by_det[det] = cls
        for obj_cls in _oracle_classes(records, truth).values():
            for det in obj_cls:
                total += 1
                hits += by_det[det] == obj_cls
    rate = hits / total
    assert rate >= 0.95, f"only {rate:.3f} of detections in their oracle class"
    _passline(2, "noise robustness", f"{rate:.3f} of {total} jittered detections in oracle class")


# -- criterion 3: node-reduction metric shape ----------------------------------------


def _c3_world_specs():
    shared = dict(d_o=24, d_a=8, static_separation=0.85, extent_range=(0.6, 0.9),
                  n_static_classes=8, n_dynamic_classes=8)
    specs = [
        sw.WorldSpec(seed=300 + i, video_id=f"c3a-{i}", n_frames=3, n_static=10,
                     n_dynamic=4, **shared)
        for i in range(4)
    ]
    specs += [
        sw.WorldSpec(seed=400 + i, video_id=f"c3b-{i}", n_frames=4, n_static=11,
                     n_dynamic=4, **shared)
        for i in range(12)
    ]
    return specs


def test_c3_node_reduction_metric_shape(tmp_path):
    start = time.perf_counter()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"worlds": [s.to_json() for s in _c3_world_specs()]}))
    det = tmp_path / "d.jsonl"
    reg = tmp_path / "reg.json"
    graphs = tmp_path / "g.json"
    compacted = tmp_path / "c.json"
    stats_file = tmp_path / "stats.json"
    assert main(["synth", "--spec", str(spec_file), "--out-detections", str(det),
                 "--out-registry", str(reg)]) == 0
    assert main(["ingest", "--in", str(det), "--registry", str(reg), "--out", str(graphs)]) == 0
    assert main(["compact", "--in", str(graphs), "--out", str(compacted)]) == 0
    assert main(["stats", "--before", str(graphs), "--after", str(compacted),
                 "--out", str(stats_file)]) == 0
    stats = json.loads(stats_file.read_text())

    # compaction must be recovering the oracle classes for the statistic to count
    for spec in _c3_world_specs():
        records, truth, graph = _world_pipeline(spec)
        assert set(_computed_classes(graph).values()) == set(_oracle_classes(records, truth).values())

    elapsed = time.perf_counter() - start
    assert abs(stats["reduction_pct"] - 53.6) <= 0.1, stats
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passline(3, "node-reduction metric shape",
              f"cmd_stats reduction_pct={stats['reduction_pct']:.4f} (target 53.6±0.1), {elapsed:.1f}s")


# -- criterion 4: registration recovery ----------------------------------------------


def test_c4_registration_recovery():
    start = time.perf_counter()
    worst_rot = worst_trans = 0.0
    for k in range(50):
        camera = (
            sw.CameraSpec(kind="translating", velocity=(0.04, 0.015, 0.01))
            if k % 2 == 0
            else sw.CameraSpec(kind="orbiting", angular_rate=0.02)
        )
        spec = sw.WorldSpec(seed=40_000 + k, video_id=f"c4-{k}", n_frames=8,
                            n_static=5, n_dynamic=1, camera=camera)
        records, truth = generate_world(spec)
        graph = graphs_from_records(records, REGISTRY)[0]
        rotations, translations = estimate_frame_transforms(graph, gamma=PARAMS.gamma)
        assert rotations.shape == truth.rotations.shape and translations.shape == truth.translations.shape
        worst_rot = max(worst_rot, float(np.linalg.norm(rotations - truth.rotations, axis=(1, 2)).max()))
        worst_trans = max(worst_trans, float(np.linalg.norm(translations - truth.translations, axis=1).max()))
    elapsed = time.perf_counter() - start
    assert worst_rot < 1e-6 and worst_trans < 1e-6, (worst_rot, worst_trans)
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _passline(4, "registration recovery",
              f"50 worlds, max rotation err {worst_rot:.2e}, max translation err {worst_trans:.2e}")


# -- criterion 5: kernel/attention property suite -------------------------------------


def test_c5_kernel_attention_property_suite():
    from prism25d.attention import (
        combined_encoding,
        encoder_init,
        hierarchical_attention,
        kernel_attention,
        kernel_softmax_levels,
        multihead_attention,
    )

    start = time.perf_counter()
    rng = np.random.default_rng(50_000)
    cases = 0

    def random_nodes(n, multi_time=False):
        """(8, n) node features, each node's position and its sorted observation times."""
        times = [
            np.sort(rng.uniform(0, 1, size=rng.integers(1, 4) if multi_time else 1))
            for _ in range(n)
        ]
        features = Tensor(rng.normal(size=(8, n)))
        return features, rng.uniform(-2, 2, size=(n, 3)), times

    # kernel symmetry, unit self-similarity, bandwidth monotonicity (400 cases)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        _, positions, times = random_nodes(n, multi_time=True)
        sigma = float(rng.uniform(0.05, 5.0))
        d2, dt = kernel_distances(positions, times)
        k = kernel_matrix(d2, dt, sigma, sigma)
        assert np.allclose(k, k.T, atol=1e-12)
        assert np.allclose(np.diag(k), 1.0, atol=1e-12)
        k_small = kernel_matrix(d2, dt, sigma / 2, sigma / 2)
        off = ~np.eye(n, dtype=bool)
        assert np.all(k_small[off] <= k[off] + 1e-12)
        cases += 1

    # row-stochasticity of every attention matrix in play (300 cases)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        _, positions, times = random_nodes(n)
        sigma = float(rng.uniform(0.01, 10.0))
        k = kernel_matrix(*kernel_distances(positions, times), sigma, sigma)
        s = nc.softmax_rows(Tensor(k))
        assert np.all(np.abs(s.data.sum(axis=1) - 1.0) <= 1e-9)
        cases += 1

    # permutation equivariance of all four encoders (200 cases)
    levels = ((0.5, 0.5), (2.0, 2.0))
    for _ in range(200):
        n = int(rng.integers(2, 7))
        f, positions, times = random_nodes(n, multi_time=True)
        enc = encoder_init(8, len(levels), rng)
        perm = rng.permutation(n)
        f_p = Tensor(f.data[:, perm].copy())
        smax = kernel_softmax_levels(positions, times, levels)
        smax_p = kernel_softmax_levels(positions[perm].copy(), [times[i] for i in perm], levels)
        outs = (
            (multihead_attention(f, f, enc.standard[0], 2),
             multihead_attention(f_p, f_p, enc.standard[0], 2)),
            (kernel_attention(f, enc.kernel_values, smax[0]),
             kernel_attention(f_p, enc.kernel_values, smax_p[0])),
            (hierarchical_attention(f, enc.levels, enc.kernel_values, smax),
             hierarchical_attention(f_p, enc.levels, enc.kernel_values, smax_p)),
            (combined_encoding(f, 2, enc, smax), combined_encoding(f_p, 2, enc, smax_p)),
        )
        for base, after in outs:
            assert np.allclose(base.data[:, perm], after.data, atol=1e-9)
        cases += 1

    # single-level hierarchy with an identity MLP reduces to the kernel encoder (100 cases)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f, positions, times = random_nodes(n, multi_time=True)
        sigma = float(rng.uniform(0.05, 5.0))
        wv = Tensor(rng.normal(size=(8, 8)))
        smax = kernel_softmax_levels(positions, times, ((sigma, sigma),))
        hier = hierarchical_attention(f, [affine_identity(8)], wv, smax)
        ka = kernel_attention(f, wv, smax[0])
        assert np.allclose(hier.data, ka.data, atol=1e-12)
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases == 1000
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passline(5, "kernel/attention properties", f"{cases} randomized cases, {elapsed:.1f}s")


# -- criterion 6: gradient fidelity ----------------------------------------------------


def test_c6_gradient_fidelity_full_pipeline():
    start = time.perf_counter()
    recs = [
        {"video_id": "g", "frame_index": 0, "class_id": 1, "bbox": [10, 10, 50, 50],
         "depth": 2.0, "feature": [1.0, 0.0], "motion_feature": None},
        {"video_id": "g", "frame_index": 0, "class_id": 2, "bbox": [100, 100, 140, 140],
         "depth": 3.0, "feature": [0.0, 1.0], "motion_feature": None},
        {"video_id": "g", "frame_index": 1, "class_id": 101, "bbox": [60, 60, 90, 90],
         "depth": 2.5, "feature": [1.0, 1.0], "motion_feature": [0.3, 0.1]},
    ]
    graph = graphs_from_records(recs, REGISTRY)[0]
    instances = [
        QaInstance(video_id="g", question=(1, 5), candidates=((2,), (3,), (4,)), gt_index=0),
        QaInstance(video_id="g", question=(1, 6), candidates=((2,), (3,), (7,)), gt_index=2),
    ]
    config = ModelConfig(d_o=2, d_a=2, vocab_size=12, latent_dim=8, heads=2,
                         sigma_s=(0.5, 5.0))
    model = init_model(config, seed=0)
    bundles = build_bundles({"g": graph}, config.kernel_config())

    def loss_fn():
        loss, _ = batch_forward(model, bundles, instances)
        return loss

    named = model.named_parameters()
    params = [t for _, t in named]
    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(loss_fn())
    reverse = [p.grad.copy() for p in params]
    fd = fd_gradients(loss_fn, params, h=1e-5)
    worst = 0.0
    for (name, _), a, b in zip(named, reverse, fd):
        err = max_relative_error(a, b)
        worst = max(worst, err)
        assert err < 1e-4, f"{name}: relative error {err:.2e}"
    n_scalars = sum(p.data.size for p in params)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passline(6, "gradient fidelity",
              f"{n_scalars} parameters via central differences, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criteria 7 and 8: learning signal and hierarchy ablation ---------------------------

_LEARN_CACHE: dict = {}


def _learning_corpus():
    if "corpus" in _LEARN_CACHE:
        return _LEARN_CACHE["corpus"]
    start = time.perf_counter()

    def build(n_worlds, seed0):
        graphs, instances = {}, []
        for k in range(n_worlds):
            spec = sw.WorldSpec(seed=seed0 + k, video_id=f"w{seed0 + k}", n_frames=8,
                                n_static=6, n_dynamic=2)
            world = sw.build_world(spec)
            records = sw.world_detections(world)
            truth = sw.world_truth(world)
            graph = compact(register_frames(graphs_from_records(records, REGISTRY)[0]), PARAMS)
            graphs[spec.video_id] = graph
            insts, _ = sw.generate_qa(world, truth, "nearest_static", 4, seed=5)
            instances.extend(insts)
        return graphs, instances

    train_graphs, train_insts = build(125, 1000)
    val_graphs, val_insts = build(25, 9000)
    graphs = {**train_graphs, **val_graphs}
    _LEARN_CACHE["corpus"] = (graphs, train_insts, val_insts, time.perf_counter() - start)
    return _LEARN_CACHE["corpus"]


def _learning_run(sigmas, seed):
    key = (sigmas, seed)
    if key in _LEARN_CACHE:
        return _LEARN_CACHE[key]
    graphs, train_insts, val_insts, _ = _learning_corpus()
    config = ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE, latent_dim=32,
                         heads=4, sigma_s=sigmas)
    start = time.perf_counter()
    _model, metrics = train(train_insts, graphs, config, TrainConfig(lr=2e-3, batch_size=16),
                            epochs=50, seed=seed, val_instances=val_insts)
    _LEARN_CACHE[key] = (metrics, time.perf_counter() - start)
    return _LEARN_CACHE[key]


@pytest.mark.slow
def test_c7_end_to_end_learning_signal():
    graphs, train_insts, val_insts, corpus_secs = _learning_corpus()
    assert len(train_insts) == 500 and len(val_insts) == 100
    metrics, run_secs = _learning_run(DEFAULT_BANDWIDTHS, seed=0)
    best_train = max(e["train_accuracy"] for e in metrics["epochs"])
    final_val = metrics["epochs"][-1]["val_accuracy"]
    assert best_train >= 0.90, f"train accuracy peaked at {best_train:.3f}"
    assert final_val >= 0.40, f"held-out accuracy {final_val:.3f} under 2x chance"
    elapsed = corpus_secs + run_secs
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _passline(7, "end-to-end learning",
              f"train acc {best_train:.3f} (>=0.90), held-out {final_val:.3f} (>=0.40), {elapsed:.0f}s")


@pytest.mark.slow
def test_c8_hierarchy_ablation_direction():
    four = []
    one = []
    for seed in (0, 1, 2):
        m4, _ = _learning_run(DEFAULT_BANDWIDTHS, seed=seed)
        m1, _ = _learning_run((0.01,), seed=seed)
        four.append(m4["epochs"][-1]["val_accuracy"])
        one.append(m1["epochs"][-1]["val_accuracy"])
    mean4, mean1 = float(np.mean(four)), float(np.mean(one))
    assert mean4 >= mean1, f"4-level {mean4:.3f} vs 1-level {mean1:.3f}"
    _passline(8, "hierarchy ablation direction",
              f"4-level held-out {mean4:.3f} >= 1-level {mean1:.3f} over seeds 0-2")


# -- criterion 9: determinism and round-trips -------------------------------------------


def test_c9_determinism_and_roundtrips(tmp_path):
    start = time.perf_counter()

    spec = sw.WorldSpec(seed=90, video_id="d0", n_frames=6, n_static=5, n_dynamic=2,
                        noise=sw.NoiseSpec(bbox_px=1.0, depth=0.02))
    for name in ("a", "b"):
        records, _ = generate_world(spec)
        sw.write_detections(records, tmp_path / f"det-{name}.jsonl")
    assert (tmp_path / "det-a.jsonl").read_bytes() == (tmp_path / "det-b.jsonl").read_bytes()

    records, _ = generate_world(spec)
    graph = compact(register_frames(graphs_from_records(records, REGISTRY)[0]), PARAMS)
    for name in ("a", "b"):
        save_corpus([graph], tmp_path / f"g-{name}.json")
    assert (tmp_path / "g-a.json").read_bytes() == (tmp_path / "g-b.json").read_bytes()
    (loaded,) = load_corpus(tmp_path / "g-a.json")
    assert loaded == graph

    world = sw.build_world(spec)
    truth = sw.world_truth(world)
    instances, _ = sw.generate_qa(world, truth, "nearest_static", 6, seed=0)
    graphs = {"d0": graph}
    config = ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE, latent_dim=16, heads=2,
                         sigma_s=(0.1, 1.0))
    outputs = []
    for name in ("a", "b"):
        model, metrics = train(instances, graphs, config, TrainConfig(), epochs=2, seed=7,
                               val_instances=instances)
        ckpt = tmp_path / f"m-{name}.ckpt"
        save_model(ckpt, model, seed=7, step=metrics["steps"])
        (tmp_path / f"metrics-{name}.json").write_text(json.dumps(metrics))
        outputs.append((ckpt.read_bytes(), (tmp_path / f"metrics-{name}.json").read_bytes()))
    assert outputs[0] == outputs[1]

    loaded, header = load_model(tmp_path / "m-a.ckpt")
    save_model(tmp_path / "m-c.ckpt", loaded, seed=header["seed"], step=header["step"])
    assert (tmp_path / "m-a.ckpt").read_bytes() == (tmp_path / "m-c.ckpt").read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passline(9, "determinism and round-trips",
              f"detections, graphs, checkpoints, metrics byte-identical; round-trips exact; {elapsed:.1f}s")


# re-recorded when `feature_hidden` left the checkpoint header; the body digest
# below, recorded before that, shows the parameters and metrics kept their bytes
TRAIN_VAL_DIGEST = "c7e85c7a476157f6bdd8abc89ccfee53c32d114f9e19a958017a28482d721eb3"
# the same run without the checkpoint's header line: parameters and metrics only
TRAIN_BODY_DIGEST = "9a955a68ee86eea08ba6e9b4f08afd17a0f40244b9c7990fbdf6c6e629be3e89"


def test_train_val_bytes_are_pinned(tmp_path):
    """A short `train --val` run on c9's world writes the same checkpoint and metrics bytes.

    Pins this machine's training arithmetic: a change to it (a different pooling
    rounding, say) shows here instead of only in c7's 50-epoch run.
    """
    spec = sw.WorldSpec(seed=90, video_id="d0", n_frames=6, n_static=5, n_dynamic=2,
                        noise=sw.NoiseSpec(bbox_px=1.0, depth=0.02))
    world = sw.build_world(spec)
    graph = compact(register_frames(graphs_from_records(sw.world_detections(world), REGISTRY)[0]), PARAMS)
    instances, _ = sw.generate_qa(world, sw.world_truth(world), "nearest_static", 6, seed=0)
    config = ModelConfig(d_o=16, d_a=8, vocab_size=sw.VOCAB_SIZE, latent_dim=16, heads=2,
                         sigma_s=(0.1, 1.0))
    model, metrics = train(instances, {"d0": graph}, config, TrainConfig(), epochs=2, seed=7,
                           val_instances=instances)
    save_model(tmp_path / "m.ckpt", model, seed=7, step=metrics["steps"])
    ckpt = (tmp_path / "m.ckpt").read_bytes()
    body = hashlib.sha256(ckpt[ckpt.index(b"\n") + 1 :])
    body.update(json.dumps(metrics).encode())
    assert body.hexdigest() == TRAIN_BODY_DIGEST
    digest = hashlib.sha256(ckpt)
    digest.update(json.dumps(metrics).encode())
    assert digest.hexdigest() == TRAIN_VAL_DIGEST
