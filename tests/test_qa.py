import math

import numpy as np
import pytest

from prism25d import numcore as nc
from prism25d.attention import attention_init
from prism25d.errors import ValidationError
from prism25d.graph import graph_from_records
from prism25d.numcore import Tensor
from prism25d.qa import (
    ModelConfig,
    QaInstance,
    TextParams,
    TrainConfig,
    augmented_loss,
    batch_forward,
    build_bundles,
    condition_on_question,
    encode_question,
    evaluate,
    init_model,
    load_model,
    save_model,
    score_answers,
    train,
)

from helpers import detection


def _probabilities(logits):
    return nc.softmax_rows(nc.reshape(logits, (1, -1))).data[0]


def _text_params(rng, vocab=12, r=8):
    return TextParams(
        embedding=Tensor(rng.normal(size=(vocab, r)), requires_grad=True),
        q_attn=attention_init(r, rng),
        answer_mlp=nc.mlp_init([r, r], rng),
    )


def _identity_text(vocab=12, r=None):
    r = vocab if r is None else r
    return TextParams(
        embedding=Tensor(np.eye(vocab), requires_grad=True),
        q_attn=attention_init(vocab, np.random.default_rng(0)),
        answer_mlp=nc.mlp_identity(vocab),
    )


# -- question encoding -------------------------------------------------------------


def test_encode_question_single_token_is_value_projection():
    rng = np.random.default_rng(0)
    text = _text_params(rng)
    out = encode_question((3,), text, heads=2)
    want = text.q_attn.wv.data @ text.embedding.data[3][:, None]
    assert np.allclose(out.data, want, atol=1e-12)


def test_encode_question_token_permutation_permutes_columns():
    rng = np.random.default_rng(1)
    text = _text_params(rng)
    ab = encode_question((2, 7), text, heads=2).data
    ba = encode_question((7, 2), text, heads=2).data
    assert np.allclose(ab[:, [1, 0]], ba, atol=1e-12)


def test_encode_question_double_evaluation():
    rng = np.random.default_rng(2)
    text = _text_params(rng)
    tokens = (1, 5, 5, 9)
    got = encode_question(tokens, text, heads=2).data
    emb = text.embedding.data[list(tokens)].T
    r, rk = 8, 4
    want = np.zeros_like(got)
    q, k, v = text.q_attn.wq.data @ emb, text.q_attn.wk.data @ emb, text.q_attn.wv.data @ emb
    for i in range(2):
        qi, ki, vi = (m[i * rk:(i + 1) * rk] for m in (q, k, v))
        scores = qi.T @ ki / math.sqrt(rk)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        want[i * rk:(i + 1) * rk] = vi @ a.T
    assert np.allclose(got, want, atol=1e-12)


def test_encode_question_rejects_bad_input():
    text = _text_params(np.random.default_rng(3))
    with pytest.raises(ValidationError):
        encode_question((), text, heads=2)
    with pytest.raises(ValidationError):
        encode_question((99,), text, heads=2)


# -- conditioning --------------------------------------------------------------------


def test_condition_single_graph_node_ignores_question_content():
    rng = np.random.default_rng(4)
    cross = attention_init(8, rng)
    graph_feats = Tensor(rng.normal(size=(8, 1)))
    q1 = Tensor(rng.normal(size=(8, 3)))
    q2 = Tensor(rng.normal(size=(8, 2)))
    want = cross.wv.data @ graph_feats.data
    for q in (q1, q2):
        out = condition_on_question(graph_feats, q, cross, heads=2)
        assert np.allclose(out.data, want, atol=1e-12)


def test_condition_identical_question_columns_match_single_column():
    rng = np.random.default_rng(5)
    cross = attention_init(8, rng)
    graph_feats = Tensor(rng.normal(size=(8, 5)))
    col = rng.normal(size=(8, 1))
    pooled = condition_on_question(graph_feats, Tensor(np.tile(col, (1, 4))), cross, heads=2)
    single = condition_on_question(graph_feats, Tensor(col), cross, heads=2)
    assert np.allclose(pooled.data, single.data, atol=1e-12)


def test_condition_matches_brute_force():
    rng = np.random.default_rng(6)
    cross = attention_init(8, rng)
    g = rng.normal(size=(8, 4))
    qf = rng.normal(size=(8, 3))
    got = condition_on_question(Tensor(g), Tensor(qf), cross, heads=2).data
    rk = 4
    q, k, v = cross.wq.data @ qf, cross.wk.data @ g, cross.wv.data @ g
    cols = np.zeros((8, 3))
    for i in range(2):
        qi, ki, vi = (m[i * rk:(i + 1) * rk] for m in (q, k, v))
        scores = qi.T @ ki / math.sqrt(rk)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        cols[i * rk:(i + 1) * rk] = vi @ a.T
    want = cols.mean(axis=1, keepdims=True)
    assert np.allclose(got, want, atol=1e-12)


def test_condition_rejects_empty_sides():
    cross = attention_init(8, np.random.default_rng(7))
    with pytest.raises(ValidationError):
        condition_on_question(Tensor(np.zeros((8, 0))), Tensor(np.zeros((8, 2))), cross, 2)


# -- scoring --------------------------------------------------------------------------


def test_score_argmax_picks_aligned_column():
    basis = np.eye(4)
    fq = Tensor(basis[:, 2:3])
    logits = score_answers(fq, Tensor(basis))
    assert int(np.argmax(logits.data)) == 2


def test_score_identical_answers_give_uniform_probabilities():
    rng = np.random.default_rng(8)
    fq = Tensor(rng.normal(size=(4, 1)))
    col = rng.normal(size=(4, 1))
    logits = score_answers(fq, Tensor(np.tile(col, (1, 5))))
    assert np.allclose(_probabilities(logits), 0.2, atol=1e-12)


def test_score_probabilities_match_hand_softmax():
    rng = np.random.default_rng(9)
    fq = rng.normal(size=(4, 1))
    answers = rng.normal(size=(4, 3))
    logits = score_answers(Tensor(fq), Tensor(answers))
    raw = answers.T @ fq[:, 0]
    want = np.exp(raw - raw.max())
    want /= want.sum()
    assert np.allclose(_probabilities(logits), want, atol=1e-12)
    assert np.allclose(logits.data, raw, atol=1e-12)


def test_prediction_scale_invariant():
    rng = np.random.default_rng(10)
    fq = Tensor(rng.normal(size=(4, 1)))
    answers = rng.normal(size=(4, 5))
    base = np.argmax(score_answers(fq, Tensor(answers)).data)
    for scale in (0.01, 3.0, 1000.0):
        assert np.argmax(score_answers(fq, Tensor(answers * scale)).data) == base


# -- augmented loss -----------------------------------------------------------------


def _instance(q, cands, gt, vid="v"):
    return QaInstance(video_id=vid, question=tuple(q), candidates=tuple(tuple(c) for c in cands), gt_index=gt)


def test_augmented_loss_b1_equals_plain_cross_entropy():
    rng = np.random.default_rng(11)
    text = _identity_text(vocab=12)
    inst = _instance((0,), [(1,), (2,), (3,)], gt=1)
    fq = Tensor(rng.normal(size=(12, 1)))
    loss, own = augmented_loss([inst], [fq], text)
    # independent evaluation: logits are fq . mean(e_q, e_answer)
    logits = np.array([fq.data[:, 0] @ (np.eye(12)[0] + np.eye(12)[c]) / 2 for c in (1, 2, 3)])
    want = -(logits[1] - (np.log(np.exp(logits - logits.max()).sum()) + logits.max()))
    assert loss.item() == pytest.approx(want, rel=1e-12)
    assert np.allclose(own[0], logits, atol=1e-12)


def test_augmented_loss_two_instances_hand_computed():
    rng = np.random.default_rng(12)
    text = _identity_text(vocab=12)
    insts = [
        _instance((0,), [(1,), (2,), (3,)], gt=0),
        _instance((4,), [(5,), (6,), (7,)], gt=2),
    ]
    fqs = [Tensor(rng.normal(size=(12, 1))) for _ in insts]
    loss, _ = augmented_loss(insts, fqs, text)

    enc = np.stack(
        [(np.eye(12)[q] + np.eye(12)[c]) / 2 for q, c in ((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7))]
    )
    want = 0.0
    for i, (fq, gt_pos) in enumerate(zip(fqs, (0, 5))):
        logits = enc @ fq.data[:, 0]
        lse = np.log(np.exp(logits - logits.max()).sum()) + logits.max()
        want += lse - logits[gt_pos]
    want /= 2
    assert loss.item() == pytest.approx(want, rel=1e-12)


def test_augmented_loss_masks_duplicate_gt_answers():
    rng = np.random.default_rng(13)
    text = _identity_text(vocab=12)
    # instance 2 offers instance 1's ground-truth answer as a candidate
    insts = [
        _instance((0,), [(1,), (2,)], gt=0),
        _instance((0,), [(1,), (3,)], gt=1),
    ]
    fqs = [Tensor(rng.normal(size=(12, 1))) for _ in insts]
    loss, _ = augmented_loss(insts, fqs, text)

    enc = np.stack([(np.eye(12)[0] + np.eye(12)[c]) / 2 for c in (1, 2, 1, 3)])
    want = 0.0
    for i, (fq, gt_pos, dup) in enumerate(zip(fqs, (0, 3), ((2,), ()))):
        logits = enc @ fq.data[:, 0]
        keep = [j for j in range(4) if j not in dup]
        lse = np.log(np.exp(logits[keep] - logits[keep].max()).sum()) + logits[keep].max()
        want += lse - logits[gt_pos]
    want /= 2
    assert loss.item() == pytest.approx(want, rel=1e-9)


def test_augmented_loss_vanishes_for_dominant_gt_logit():
    text = _identity_text(vocab=12)
    inst = _instance((0,), [(1,), (2,), (3,)], gt=1)
    fq = np.zeros((12, 1))
    fq[2, 0] = 200.0  # aligns with answer token 2, the ground truth
    loss, _ = augmented_loss([inst], [Tensor(fq)], text)
    assert 0.0 <= loss.item() < 1e-8


def test_augmented_loss_nonnegative_random():
    rng = np.random.default_rng(14)
    text = _text_params(rng)
    for _ in range(10):
        insts = [
            _instance((0, 1), [(2,), (3,), (4,)], gt=int(rng.integers(3))),
            _instance((5,), [(6,), (7,), (8,)], gt=int(rng.integers(3))),
        ]
        fqs = [Tensor(rng.normal(size=(8, 1))) for _ in insts]
        loss, _ = augmented_loss(insts, fqs, text)
        assert loss.item() >= 0.0


# -- tiny corpora for train/evaluate -------------------------------------------------


def _toy_graph(registry, vid="v"):
    recs = [
        detection(video_id=vid, frame=0, class_id=1, bbox=(10, 10, 50, 50), feature=(1, 0)),
        detection(video_id=vid, frame=0, class_id=2, bbox=(100, 100, 140, 140), feature=(0, 1)),
        detection(video_id=vid, frame=1, class_id=101, bbox=(60, 60, 90, 90), feature=(1, 1),
                  motion=(0.3, 0.1)),
    ]
    return graph_from_records(recs, registry)


def _toy_config(**kw):
    base = dict(d_o=2, d_a=2, vocab_size=12, latent_dim=8, heads=2, sigma_s=(0.5, 5.0))
    base.update(kw)
    return ModelConfig(**base)


def test_train_lr_zero_keeps_parameters(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    cfg = _toy_config()
    before = init_model(cfg, seed=3)
    model, metrics = train(insts, graphs, cfg, TrainConfig(lr=0.0), epochs=3, seed=3)
    for (_, a), (_, b) in zip(before.named_parameters(), model.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert metrics["steps"] == 0


def test_train_overfits_single_instance(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=1)]
    model, metrics = train(insts, graphs, _toy_config(), TrainConfig(lr=1e-3, batch_size=1),
                           epochs=200, seed=0)
    assert metrics["epochs"][-1]["train_accuracy"] == 1.0
    assert metrics["epochs"][-1]["train_loss"] < metrics["epochs"][0]["train_loss"]


def test_train_rejects_empty_dataset(registry):
    with pytest.raises(ValidationError):
        train([], {"v": _toy_graph(registry)}, _toy_config(), TrainConfig(), 1, 0)


def test_train_and_loss_deterministic(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [
        _instance((1, 5), [(2,), (3,), (4,)], gt=0),
        _instance((1, 6), [(2,), (3,), (4,)], gt=2),
    ]
    runs = [train(insts, graphs, _toy_config(), TrainConfig(), epochs=3, seed=11) for _ in range(2)]
    for (_, a), (_, b) in zip(runs[0][0].named_parameters(), runs[1][0].named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert runs[0][1] == runs[1][1]


def test_evaluate_perfect_and_tied_models(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=i % 3) for i in range(6)]
    cfg = _toy_config()

    # constant logits: ties resolve to candidate 0, so rank is gt_index + 1
    tied = init_model(cfg, seed=0)
    for layer in (tied.text.answer_mlp.weights[0], tied.text.answer_mlp.biases[0]):
        layer.data[:] = 0.0
    res = evaluate(insts, graphs, tied)
    assert res["accuracy"] == pytest.approx(2 / 6)
    assert res["mean_rank"] == pytest.approx(np.mean([i % 3 + 1 for i in range(6)]))

    # an overfit model is a perfect model on its own instance
    model, _ = train(insts[:1], graphs, cfg, TrainConfig(lr=1e-3, batch_size=1), epochs=200, seed=0)
    res1 = evaluate(insts[:1], graphs, model)
    assert res1 == {"accuracy": 1.0, "mean_rank": 1.0}


def test_evaluate_random_model_near_chance(registry):
    graphs = {"v": _toy_graph(registry)}
    rng = np.random.default_rng(15)
    insts = []
    for k in range(500):
        gt = int(rng.integers(5))
        cands = [(int(c),) for c in rng.integers(2, 12, size=5)]
        insts.append(_instance((1, int(rng.integers(2, 12))), cands, gt=gt))
    model = init_model(_toy_config(), seed=9)
    acc = evaluate(insts, graphs, model)["accuracy"]
    assert abs(acc - 0.2) < 0.05


def test_evaluate_order_independent(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5 + i % 3), [(2,), (3,), (4,)], gt=i % 3) for i in range(8)]
    model = init_model(_toy_config(), seed=4)
    forward = evaluate(insts, graphs, model)
    backward_order = evaluate(list(reversed(insts)), graphs, model)
    assert forward == backward_order


def test_evaluate_builds_bundles_only_for_referenced_videos(registry):
    model = init_model(_toy_config(), seed=4)
    unused = _toy_graph(registry, vid="unused")
    unused.nodes[2].motion_feature = None  # node_inputs rejects this graph
    graphs = {"v": _toy_graph(registry), "unused": unused}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    assert evaluate(insts, graphs, model) == evaluate(insts, {"v": graphs["v"]}, model)


def test_unknown_video_rejected(registry):
    model = init_model(_toy_config(), seed=0)
    with pytest.raises(ValidationError):
        evaluate([_instance((1,), [(2,), (3,)], 0, vid="missing")], {}, model)


# -- checkpoint + end-to-end gradient -------------------------------------------------


def test_model_checkpoint_roundtrip(tmp_path, registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    cfg = _toy_config()
    model, metrics = train(insts, graphs, cfg, TrainConfig(), epochs=2, seed=1)
    path = tmp_path / "m.ckpt"
    save_model(path, model, seed=1, step=metrics["steps"])
    loaded, header = load_model(path)
    assert header["seed"] == 1 and header["step"] == metrics["steps"]
    assert loaded.config == cfg
    for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    save_model(tmp_path / "m2.ckpt", loaded, seed=1, step=metrics["steps"])
    assert path.read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_no_combine_config_changes_encoding(registry):
    graphs = {"v": _toy_graph(registry)}
    inst = _instance((1, 5), [(2,), (3,), (4,)], gt=0)
    a = init_model(_toy_config(combine=True), seed=2)
    b = init_model(_toy_config(combine=False), seed=2)
    la, _ = batch_forward(a, build_bundles(graphs, a.config.kernel_config()), [inst])
    lb, _ = batch_forward(b, build_bundles(graphs, b.config.kernel_config()), [inst])
    assert la.item() != lb.item()


def test_end_to_end_gradients_micro_problem(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [
        _instance((1, 5), [(2,), (3,), (4,)], gt=0),
        _instance((1, 6), [(2,), (3,), (4,)], gt=2),
    ]
    model = init_model(_toy_config(), seed=5)
    bundles = build_bundles(graphs, model.config.kernel_config())
    params = model.parameters()

    def build():
        loss, _ = batch_forward(model, bundles, insts)
        return loss

    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    ad = [p.grad.copy() for p in params]
    fd = nc.fd_gradients(build, params, h=1e-5)
    for name_t, a, f in zip(model.named_parameters(), ad, fd):
        err = nc.max_relative_error(a, f)
        assert err < 1e-4, f"{name_t[0]}: rel err {err}"
