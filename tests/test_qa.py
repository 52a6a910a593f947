import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from prism25d import numcore as nc
from prism25d import synthworld as sw
from prism25d.compact import MatchParams, compact
from prism25d.errors import ValidationError
from prism25d.graph import graphs_from_records
from prism25d.numcore import Tensor
from prism25d.qa import (
    ModelConfig,
    QaInstance,
    TextParams,
    TrainConfig,
    augmented_loss,
    batch_forward,
    build_bundles,
    condition_on_questions,
    encode_candidates,
    encode_questions,
    evaluate,
    init_model,
    load_model,
    question_features,
    save_model,
    score_answers,
    train,
)

from prism25d.register import register_frames

from helpers import (
    affine_identity, detection, fd_gradients, generate_world, max_relative_error, table, traced_peak,
    uniform_affine, uniform_attention,
)


def _probabilities(logits):
    """Softmax over candidates: one row per logit column."""
    return nc.softmax_rows(nc.transpose(logits)).data


def _text_params(rng, vocab=12, r=8):
    return TextParams(
        embedding=Tensor(rng.normal(size=(vocab, r)), requires_grad=True),
        q_attn=uniform_attention(r, rng),
        answer=uniform_affine(r, r, rng),
    )


def _columns(tensors):
    return Tensor(np.hstack([t.data for t in tensors]))


def _identity_text(vocab=12, r=None):
    r = vocab if r is None else r
    return TextParams(
        embedding=Tensor(np.eye(vocab), requires_grad=True),
        q_attn=uniform_attention(vocab, np.random.default_rng(0)),
        answer=affine_identity(vocab),
    )


# -- question encoding -------------------------------------------------------------


def test_encode_question_single_token_is_value_projection():
    rng = np.random.default_rng(0)
    text = _text_params(rng)
    out = encode_questions([(3,)], text, heads=2)
    want = text.q_attn.wv.data @ text.embedding.data[3][:, None]
    assert np.allclose(out.data, want, atol=1e-12)


def test_encode_question_token_permutation_permutes_columns():
    rng = np.random.default_rng(1)
    text = _text_params(rng)
    ab = encode_questions([(2, 7)], text, heads=2).data
    ba = encode_questions([(7, 2)], text, heads=2).data
    assert np.allclose(ab[:, [1, 0]], ba, atol=1e-12)


def test_encode_question_double_evaluation():
    rng = np.random.default_rng(2)
    text = _text_params(rng)
    tokens = (1, 5, 5, 9)
    got = encode_questions([tokens], text, heads=2).data
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


# -- conditioning --------------------------------------------------------------------


def test_condition_single_graph_node_ignores_question_content():
    rng = np.random.default_rng(4)
    cross = uniform_attention(8, rng)
    graph_feats = Tensor(rng.normal(size=(8, 1)))
    q1 = Tensor(rng.normal(size=(8, 3)))
    q2 = Tensor(rng.normal(size=(8, 2)))
    want = cross.wv.data @ graph_feats.data
    for q in (q1, q2):
        out = condition_on_questions(graph_feats, q, [q.shape[1]], cross, heads=2)
        assert np.allclose(out.data, want, atol=1e-12)


def test_condition_identical_question_columns_match_single_column():
    rng = np.random.default_rng(5)
    cross = uniform_attention(8, rng)
    graph_feats = Tensor(rng.normal(size=(8, 5)))
    col = rng.normal(size=(8, 1))
    pooled = condition_on_questions(graph_feats, Tensor(np.tile(col, (1, 4))), [4], cross, heads=2)
    single = condition_on_questions(graph_feats, Tensor(col), [1], cross, heads=2)
    assert np.allclose(pooled.data, single.data, atol=1e-12)


def test_condition_matches_brute_force():
    rng = np.random.default_rng(6)
    cross = uniform_attention(8, rng)
    g = rng.normal(size=(8, 4))
    qf = rng.normal(size=(8, 3))
    got = condition_on_questions(Tensor(g), Tensor(qf), [3], cross, heads=2).data
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


# -- scoring --------------------------------------------------------------------------


def test_score_argmax_picks_aligned_column():
    basis = np.eye(4)
    logits = score_answers(Tensor(basis[:, [2, 0, 3]]), Tensor(basis))
    assert logits.shape == (4, 3)
    assert list(np.argmax(logits.data, axis=0)) == [2, 0, 3]


def test_score_identical_answers_give_uniform_probabilities():
    rng = np.random.default_rng(8)
    fq = Tensor(rng.normal(size=(4, 2)))
    col = rng.normal(size=(4, 1))
    logits = score_answers(fq, Tensor(np.tile(col, (1, 5))))
    assert np.allclose(_probabilities(logits), 0.2, atol=1e-12)


def test_score_probabilities_match_hand_softmax():
    rng = np.random.default_rng(9)
    fq = rng.normal(size=(4, 2))
    answers = rng.normal(size=(4, 3))
    logits = score_answers(Tensor(fq), Tensor(answers))
    raw = np.array([[a @ f for f in fq.T] for a in answers.T])
    want = np.exp(raw - raw.max(axis=0))
    want /= want.sum(axis=0)
    assert np.allclose(_probabilities(logits), want.T, atol=1e-12)
    assert np.allclose(logits.data, raw, atol=1e-12)


def test_prediction_scale_invariant():
    rng = np.random.default_rng(10)
    fq = Tensor(rng.normal(size=(4, 3)))
    answers = rng.normal(size=(4, 5))
    base = np.argmax(score_answers(fq, Tensor(answers)).data, axis=0)
    for scale in (0.01, 3.0, 1000.0):
        scaled = np.argmax(score_answers(fq, Tensor(answers * scale)).data, axis=0)
        assert list(scaled) == list(base)


# -- augmented loss -----------------------------------------------------------------


def _instance(q, cands, gt, vid="v"):
    return QaInstance(video_id=vid, question=tuple(q), candidates=tuple(tuple(c) for c in cands), gt_index=gt)


def test_augmented_loss_b1_equals_plain_cross_entropy():
    rng = np.random.default_rng(11)
    text = _identity_text(vocab=12)
    inst = _instance((0,), [(1,), (2,), (3,)], gt=1)
    fq = Tensor(rng.normal(size=(12, 1)))
    loss, ranks = augmented_loss([inst], fq, text)
    # independent evaluation: logits are fq . mean(e_q, e_answer)
    logits = np.array([fq.data[:, 0] @ (np.eye(12)[0] + np.eye(12)[c]) / 2 for c in (1, 2, 3)])
    want = -(logits[1] - (np.log(np.exp(logits - logits.max()).sum()) + logits.max()))
    assert loss.item() == pytest.approx(want, rel=1e-12)
    assert list(ranks) == [1 + int(np.sum(logits > logits[1]))]


def test_augmented_loss_two_instances_hand_computed():
    rng = np.random.default_rng(12)
    text = _identity_text(vocab=12)
    insts = [
        _instance((0,), [(1,), (2,), (3,)], gt=0),
        _instance((4,), [(5,), (6,), (7,)], gt=2),
    ]
    fqs = [Tensor(rng.normal(size=(12, 1))) for _ in insts]
    loss, _ = augmented_loss(insts, _columns(fqs), text)

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
    loss, _ = augmented_loss(insts, _columns(fqs), text)

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
    loss, _ = augmented_loss([inst], Tensor(fq), text)
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
        loss, _ = augmented_loss(insts, _columns(fqs), text)
        assert loss.item() >= 0.0


def _ranks_of(logits, batch, monkeypatch):
    """augmented_loss's ranks when the scorer returns `logits` (candidates, instances)."""
    from prism25d import qa

    monkeypatch.setattr(qa, "score_answers", lambda fq, answers: Tensor(logits))
    fq = Tensor(np.zeros((12, len(batch))))
    return augmented_loss(batch, fq, _identity_text(vocab=12))[1]


def _rank_batch(rng, n):
    out = []
    for _ in range(n):
        k = int(rng.integers(2, 6))
        out.append(_instance((0,), [(c,) for c in range(1, k + 1)], gt=int(rng.integers(k))))
    return out


def _own_columns(logits, batch):
    lo = 0
    for b, inst in enumerate(batch):
        yield inst, logits[lo : lo + len(inst.candidates), b]
        lo += len(inst.candidates)


@pytest.mark.parametrize("ties", [False, True])
def test_augmented_loss_rank_one_is_argmax(ties, monkeypatch):
    rng = np.random.default_rng(16 + ties)
    batch = _rank_batch(rng, 40)
    n_cands = sum(len(inst.candidates) for inst in batch)
    shape = (n_cands, len(batch))
    # exact ties: three logit values, so most columns repeat their maximum
    logits = rng.integers(0, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
    ranks = _ranks_of(logits, batch, monkeypatch)
    for (inst, own), rank in zip(_own_columns(logits, batch), ranks):
        gt = inst.gt_index
        assert (rank == 1) == (int(np.argmax(own)) == gt)
        assert rank == 1 + np.sum(own > own[gt]) + np.sum(own[:gt] == own[gt])
    if ties:
        assert any(np.sum(own == own.max()) > 1 for _, own in _own_columns(logits, batch))


def test_augmented_loss_nan_logit_never_ranks_first(monkeypatch):
    rng = np.random.default_rng(18)
    batch = _rank_batch(rng, 12)
    n_cands = sum(len(inst.candidates) for inst in batch)
    logits = rng.normal(size=(n_cands, len(batch)))
    lo = 0
    for b, inst in enumerate(batch):
        own = logits[lo : lo + len(inst.candidates), b]
        own[inst.gt_index] = 100.0  # would rank first
        own[b % len(own)] = np.nan  # on the ground truth itself for some instances
        lo += len(own)
    assert np.all(_ranks_of(logits, batch, monkeypatch) > 1)


# -- tiny corpora for train/evaluate -------------------------------------------------


def _toy_graph(registry, vid="v"):
    recs = [
        detection(video_id=vid, frame=0, class_id=1, bbox=(10, 10, 50, 50), feature=(1, 0)),
        detection(video_id=vid, frame=0, class_id=2, bbox=(100, 100, 140, 140), feature=(0, 1)),
        detection(video_id=vid, frame=1, class_id=101, bbox=(60, 60, 90, 90), feature=(1, 1),
                  motion=(0.3, 0.1)),
    ]
    return graphs_from_records(recs, registry)[0]


def _toy_config(**kw):
    base = dict(d_o=2, d_a=2, vocab_size=12, latent_dim=8, heads=2, sigma_s=(0.5, 5.0))
    base.update(kw)
    return ModelConfig(**base)


def test_train_lr_zero_keeps_parameters(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    cfg = _toy_config()
    before = init_model(cfg, seed=3)
    model, metrics = train(insts, graphs, cfg, TrainConfig(lr=0.0, epochs=3, seed=3))
    for (_, a), (_, b) in zip(before.named_parameters(), model.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert metrics["steps"] == 0


def test_train_overfits_single_instance(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=1)]
    model, metrics = train(insts, graphs, _toy_config(), TrainConfig(lr=1e-3, batch_size=1, epochs=200))
    assert metrics["epochs"][-1]["train_accuracy"] == 1.0
    assert metrics["epochs"][-1]["train_loss"] < metrics["epochs"][0]["train_loss"]


def test_train_rejects_empty_dataset(registry):
    with pytest.raises(ValidationError):
        train([], {"v": _toy_graph(registry)}, _toy_config(), TrainConfig(epochs=1))


def test_train_and_loss_deterministic(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [
        _instance((1, 5), [(2,), (3,), (4,)], gt=0),
        _instance((1, 6), [(2,), (3,), (4,)], gt=2),
    ]
    runs = [train(insts, graphs, _toy_config(), TrainConfig(epochs=3, seed=11)) for _ in range(2)]
    for (_, a), (_, b) in zip(runs[0][0].named_parameters(), runs[1][0].named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    assert runs[0][1] == runs[1][1]


def test_evaluate_perfect_and_tied_models(registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=i % 3) for i in range(6)]
    cfg = _toy_config()

    # constant logits: ties resolve to candidate 0, so rank is gt_index + 1
    tied = init_model(cfg, seed=0)
    for layer in (tied.text.answer.w, tied.text.answer.b):
        layer.data[:] = 0.0
    res = evaluate(insts, graphs, tied)
    assert res["accuracy"] == pytest.approx(2 / 6)
    assert res["mean_rank"] == pytest.approx(np.mean([i % 3 + 1 for i in range(6)]))

    # an overfit model is a perfect model on its own instance
    model, _ = train(insts[:1], graphs, cfg, TrainConfig(lr=1e-3, batch_size=1, epochs=200))
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
    unused.motions = unused.motions[:0]  # node 2 is dynamic: build_bundles rejects this graph
    graphs = {"v": _toy_graph(registry), "unused": unused}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    assert evaluate(insts, graphs, model) == evaluate(insts, {"v": graphs["v"]}, model)


def test_evaluate_holds_one_kernel_bundle_at_a_time():
    """Each added video raises `evaluate`'s peak by less than a quarter of one video's kernel
    values; building every bundle before the first encode would add about one bundle each."""
    records, _ = generate_world(sw.WorldSpec(seed=3, video_id="w", n_frames=12))
    graph = compact(register_frames(graphs_from_records(records, sw.default_registry())[0]), MatchParams())
    config = ModelConfig(d_o=graph.features.shape[1], d_a=graph.motions.shape[1], vocab_size=12)
    model = init_model(config, seed=0)

    def peak(k):  # k copies of the world's graph, their instances interleaved
        graphs = {f"w{i}": replace(graph, video_id=f"w{i}") for i in range(k)}
        insts = [_instance((1, 2 + i % 5), [(2,), (3,), (4,)], gt=i % 3, vid=f"w{i % k}")
                 for i in range(3 * k)]
        return traced_peak(lambda: evaluate(insts, graphs, model))

    k = 4
    peak(1)
    small, large = peak(k), peak(2 * k)
    kernel_values = len(config.sigma_s) * len(graph.nodes) ** 2 * 8
    assert (large - small) / k < kernel_values / 4


def test_evaluate_builds_each_bundle_as_the_given_bundles_are(registry):
    graphs = {vid: _toy_graph(registry, vid=vid) for vid in ("v", "w")}
    graphs["u"] = _second_graph(registry)
    insts = [_instance((1, 2 + i % 7), [(2,), (3,), (4,), (5,)], gt=i % 4, vid="vwu"[i % 3])
             for i in range(40)]
    model = init_model(_toy_config(), seed=12)
    given = evaluate(insts, graphs, model, build_bundles(graphs, model.config.kernel_config()))
    assert evaluate(insts, graphs, model) == given


def test_evaluate_checks_its_inputs_before_it_meets_a_graph_without_nodes(registry):
    """A referenced graph without nodes is refused when its video is reached, after any fault
    that `_check_inputs` finds in a later instance."""
    graphs = {"v": _toy_graph(registry), "e": replace(table([], video_id="e"), features=np.zeros((0, 2)))}
    insts = [_instance((1,), [(2,), (3,)], 0, vid=vid) for vid in ("v", "e")]
    model = init_model(_toy_config(), seed=4)
    with pytest.raises(ValidationError, match="^video 'e': graph has no nodes$"):
        evaluate(insts, graphs, model)
    with pytest.raises(ValidationError, match="^instance references unknown video 'x'$"):
        evaluate(insts + [_instance((1,), [(2,), (3,)], 0, vid="x")], graphs, model)


def test_evaluate_records_no_tape_and_training_still_gets_gradients(registry, monkeypatch):
    from prism25d import qa

    graphs = {"v": _toy_graph(registry)}
    n = 2 * qa.EVAL_BATCH + 1
    insts = [_instance((1, 5 + i % 3), [(2,), (3,), (4,)], gt=i % 3) for i in range(n)]
    model = init_model(_toy_config(), seed=4)
    seen = []
    score = qa.score_answers

    def recording_score(fq, answers):
        logits = score(fq, answers)
        seen.append((fq, answers, logits))
        return logits

    monkeypatch.setattr(qa, "score_answers", recording_score)
    evaluate(insts, graphs, model)
    # one scoring call per chunk, each covering every candidate of the chunk
    assert [fq.shape[1] for fq, _, _ in seen] == [qa.EVAL_BATCH, qa.EVAL_BATCH, 1]
    assert [answers.shape[1] for _, answers, _ in seen] == [3 * qa.EVAL_BATCH, 3 * qa.EVAL_BATCH, 3]
    for t in (t for call in seen for t in call):
        assert t._parents == () and t._backward is None and not t.requires_grad

    bundles = build_bundles(graphs, model.config.kernel_config())
    for p in model.parameters():
        p.grad = None
    loss, _ = batch_forward(model, bundles, insts)
    nc.backward(loss)
    assert all(p.grad is not None for p in model.parameters())
    assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())


def _second_graph(registry):
    recs = [
        detection(video_id="u", frame=0, class_id=1, bbox=(30, 20, 80, 70), feature=(0.5, -1)),
        detection(video_id="u", frame=0, class_id=2, bbox=(120, 90, 160, 150), depth=3.0,
                  feature=(-0.2, 0.7)),
        detection(video_id="u", frame=1, class_id=101, bbox=(40, 60, 70, 95), depth=2.5,
                  feature=(0.3, 1), motion=(-0.4, 0.2)),
        detection(video_id="u", frame=2, class_id=101, bbox=(50, 64, 80, 99), depth=2.4,
                  feature=(0.3, 1), motion=(-0.3, 0.2)),
    ]
    return graphs_from_records(recs, registry)[0]


def _mixed_batch():
    """Two videos, interleaved, with 1- and 3-token questions in each."""
    return [
        _instance((1,), [(2,), (3,), (4,)], gt=0, vid="v"),
        _instance((6, 1, 9), [(2,), (7,), (4,)], gt=2, vid="u"),
        _instance((5, 8, 5), [(3,), (2,), (4,)], gt=1, vid="v"),
        _instance((9,), [(2,), (3,), (4,)], gt=1, vid="u"),
    ]


def test_mixed_batch_features_match_each_question_alone(registry):
    graphs = {"v": _toy_graph(registry), "u": _second_graph(registry)}
    model = init_model(_toy_config(), seed=6)
    bundles = build_bundles(graphs, model.config.kernel_config())
    batch = _mixed_batch()
    mixed = question_features(model, bundles, batch).data
    assert mixed.shape == (8, len(batch))
    for i, inst in enumerate(batch):
        alone = question_features(model, bundles, [inst]).data[:, 0]
        assert np.allclose(mixed[:, i], alone, rtol=0.0, atol=1e-12)
    # no two questions collapse to one feature
    assert np.linalg.matrix_rank(mixed) == len(batch)


def test_mixed_batch_gradients_match_finite_differences(registry):
    graphs = {"v": _toy_graph(registry), "u": _second_graph(registry)}
    model = init_model(_toy_config(), seed=7)
    bundles = build_bundles(graphs, model.config.kernel_config())
    batch = _mixed_batch()
    named = model.named_parameters()
    params = [t for _, t in named]

    def build():
        loss, _ = batch_forward(model, bundles, batch)
        return loss

    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    ad = [p.grad.copy() for p in params]
    fd = fd_gradients(build, params, h=1e-5)
    for (name, _), a, f in zip(named, ad, fd):
        err = max_relative_error(a, f)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_evaluate_matches_per_instance_scoring(registry):
    """Batched evaluation against the per-instance logits and rank formula it replaced."""
    graphs = {vid: _toy_graph(registry, vid=vid) for vid in ("v", "w")}
    graphs["u"] = _second_graph(registry)
    rng = np.random.default_rng(19)
    pool = [tuple(int(t) for t in rng.integers(1, 12, size=rng.integers(1, 4))) for _ in range(12)]
    insts = []
    for i in range(45):  # videos interleaved, answers drawn from one shared pool
        k = int(rng.integers(2, 6))
        cands = [pool[j] for j in rng.choice(len(pool), size=k, replace=False)]
        question = tuple(int(t) for t in rng.integers(1, 12, size=rng.integers(1, 4)))
        insts.append(_instance(question, cands, gt=int(rng.integers(k)), vid="vwu"[i % 3]))
    model = init_model(_toy_config(), seed=8)
    bundles = build_bundles(graphs, model.config.kernel_config())
    correct, rank_sum = 0, 0.0
    with nc.no_grad():
        for inst in insts:
            fq = question_features(model, bundles, [inst]).data[:, 0]
            answers = encode_candidates([inst], model.text).data
            logits = answers.T @ fq
            gt = inst.gt_index
            correct += int(np.argmax(logits)) == gt
            rank_sum += 1 + int(np.sum(logits > logits[gt])) + int(np.sum(logits[:gt] == logits[gt]))
    want = {"accuracy": correct / len(insts), "mean_rank": rank_sum / len(insts)}
    assert 0 < correct < len(insts)
    assert evaluate(insts, graphs, model) == want


def test_unknown_video_rejected(registry):
    model = init_model(_toy_config(), seed=0)
    with pytest.raises(ValidationError):
        evaluate([_instance((1,), [(2,), (3,)], 0, vid="missing")], {}, model)


@pytest.fixture
def forward_passes(monkeypatch):
    """The instance count of each `qa.question_features` call; it opens every forward pass,
    `batch_forward`'s and `evaluate`'s."""
    from prism25d import qa

    calls = []
    features = qa.question_features
    monkeypatch.setattr(qa, "question_features", lambda *args: calls.append(len(args[2])) or features(*args))
    return calls


@pytest.mark.parametrize("command, bad", [
    ("train", "video"), ("train --val", "video"), ("train --val", "empty"), ("evaluate", "video"),
    ("evaluate", "token"),
], ids=["train", "train-val", "train-empty-val", "evaluate-video", "evaluate-token"])
def test_inputs_are_checked_before_the_first_forward_pass(registry, forward_passes, command, bad):
    """A bad last instance, or an empty validation set, fails before any forward pass, with the
    message of its fault."""
    graphs = {"v": _toy_graph(registry)}
    good = [_instance((1, 5 + i % 3), [(2,), (3,), (4,)], gt=i % 3) for i in range(4)]
    if bad == "video":
        insts, message = good + [_instance((1,), [(2,), (3,)], 0, vid="x")], "unknown video 'x'"
    elif bad == "empty":
        insts, message = [], "^empty validation dataset$"
    else:
        insts, message = good + [_instance((1, -1), [(2,), (3,)], 0)], "token id -1 outside vocabulary"
    cfg, one_per_step = _toy_config(), TrainConfig(batch_size=1, epochs=1)
    with pytest.raises(ValidationError, match=message):
        if command == "train":
            train(insts, graphs, cfg, one_per_step)
        elif command == "train --val":
            train(good, graphs, cfg, one_per_step, val_instances=insts)
        else:
            evaluate(insts, graphs, init_model(cfg, seed=0))
    assert forward_passes == []


# -- checkpoint + end-to-end gradient -------------------------------------------------


def test_model_checkpoint_roundtrip(tmp_path, registry):
    graphs = {"v": _toy_graph(registry)}
    insts = [_instance((1, 5), [(2,), (3,), (4,)], gt=0)]
    cfg = _toy_config()
    model, metrics = train(insts, graphs, cfg, TrainConfig(epochs=2, seed=1))
    path = tmp_path / "m.ckpt"
    save_model(path, model, seed=1, step=metrics["steps"])
    loaded, header = load_model(path)
    assert header["seed"] == 1 and header["step"] == metrics["steps"]
    assert loaded.config == cfg
    for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes()
    save_model(tmp_path / "m2.ckpt", loaded, seed=1, step=metrics["steps"])
    assert path.read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_loading_a_checkpoint_draws_nothing(tmp_path, monkeypatch):
    path, resaved = tmp_path / "m.ckpt", tmp_path / "m2.ckpt"
    save_model(path, init_model(_toy_config(n_standard_layers=2), seed=3), seed=3, step=4)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew random numbers")

    monkeypatch.setattr("prism25d.qa.np.random.default_rng", no_draws)
    loaded, header = load_model(path)
    save_model(resaved, loaded, seed=header["seed"], step=header["step"])
    assert resaved.read_bytes() == path.read_bytes()


def test_seeded_init_deterministic():
    a = init_model(_toy_config(), seed=42)
    b = init_model(_toy_config(), seed=42)
    for (_, wa), (_, wb) in zip(a.named_parameters(), b.named_parameters()):
        assert wa.data.tobytes() == wb.data.tobytes()


# recorded from the per-structure initializers that the one parameter builder replaced
INIT_SHA256 = "a65c942a63228dc1141e0fd63e657a3f39946a45bcc7a83c328f299c3813422a"


def test_init_model_bytes_are_pinned():
    """Every parameter's name, shape and values with no standard layer and with two, one kernel
    level and no motion features; the train digests cover only the default model shape."""
    digest = hashlib.sha256()
    for layers in (0, 2):
        config = ModelConfig(d_o=3, d_a=0, vocab_size=11, latent_dim=8, heads=2, sigma_s=(0.5,),
                             n_standard_layers=layers)
        for name, tensor in init_model(config, seed=5).named_parameters():
            digest.update(f"{name}{tensor.data.shape}".encode())
            digest.update(tensor.data.astype("<f8").tobytes())
    assert digest.hexdigest() == INIT_SHA256


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
    fd = fd_gradients(build, params, h=1e-5)
    for name_t, a, f in zip(model.named_parameters(), ad, fd):
        err = max_relative_error(a, f)
        assert err < 1e-4, f"{name_t[0]}: rel err {err}"
