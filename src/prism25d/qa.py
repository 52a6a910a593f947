"""Question conditioning, answer scoring, and the training/evaluation loops."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore as nc
from .attention import (
    AttentionParams,
    EncoderParams,
    KernelConfig,
    NodeInputs,
    attention_init,
    combined_encoding,
    encoder_init,
    hierarchical_attention,
    kernel_softmax_levels,
    node_inputs,
    project_inputs,
    standard_attention,
    DEFAULT_BANDWIDTHS,
)
from .errors import ValidationError
from .graph import SceneGraph25D
from .numcore import Adam, MlpParams, Tensor

MASK_LOGIT = -1e30  # additive mask for duplicate in-batch answers

METRICS_FORMAT = "prism25d-metrics"
METRICS_VERSION = 1


@dataclass(frozen=True)
class QaInstance:
    video_id: str
    question: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    gt_index: int

    def __post_init__(self):
        if len(self.candidates) < 2:
            raise ValidationError("an instance needs at least 2 candidate answers")
        if not (0 <= self.gt_index < len(self.candidates)):
            raise ValidationError(f"gt index {self.gt_index} outside candidate range")
        if not self.question:
            raise ValidationError("empty question")


def load_qa(path: str | Path) -> list[QaInstance]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            out.append(
                QaInstance(
                    video_id=str(rec["video_id"]),
                    question=tuple(int(t) for t in rec["question"]),
                    candidates=tuple(tuple(int(t) for t in c) for c in rec["candidates"]),
                    gt_index=int(rec["gt"]),
                )
            )
    return out


def save_qa(instances: list[QaInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(
                json.dumps(
                    {
                        "video_id": inst.video_id,
                        "question": list(inst.question),
                        "candidates": [list(c) for c in inst.candidates],
                        "gt": inst.gt_index,
                    }
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ModelConfig:
    d_o: int
    d_a: int
    vocab_size: int
    latent_dim: int = 32
    heads: int = 4
    sigma_s: tuple[float, ...] = DEFAULT_BANDWIDTHS
    sigma_t: tuple[float, ...] | None = None  # None keeps sigma_t = sigma_s
    feature_hidden: tuple[int, ...] = ()
    n_standard_layers: int = 1
    combine: bool = True  # False feeds the hierarchical branch alone downstream

    def kernel_config(self) -> KernelConfig:
        sigma_t = self.sigma_s if self.sigma_t is None else self.sigma_t
        if len(sigma_t) != len(self.sigma_s):
            raise ValidationError("sigma_s and sigma_t hierarchies differ in length")
        return KernelConfig(
            levels=tuple(zip(self.sigma_s, sigma_t)),
            heads=self.heads,
            latent_dim=self.latent_dim,
        )

    def to_json(self) -> dict:
        return {
            "d_o": self.d_o,
            "d_a": self.d_a,
            "vocab_size": self.vocab_size,
            "latent_dim": self.latent_dim,
            "heads": self.heads,
            "sigma_s": list(self.sigma_s),
            "sigma_t": None if self.sigma_t is None else list(self.sigma_t),
            "feature_hidden": list(self.feature_hidden),
            "n_standard_layers": self.n_standard_layers,
            "combine": self.combine,
        }

    @staticmethod
    def from_json(obj: dict) -> "ModelConfig":
        return ModelConfig(
            d_o=int(obj["d_o"]),
            d_a=int(obj["d_a"]),
            vocab_size=int(obj["vocab_size"]),
            latent_dim=int(obj["latent_dim"]),
            heads=int(obj["heads"]),
            sigma_s=tuple(float(s) for s in obj["sigma_s"]),
            sigma_t=None if obj["sigma_t"] is None else tuple(float(s) for s in obj["sigma_t"]),
            feature_hidden=tuple(int(d) for d in obj["feature_hidden"]),
            n_standard_layers=int(obj["n_standard_layers"]),
            combine=bool(obj["combine"]),
        )


@dataclass
class TextParams:
    embedding: Tensor  # (vocab, r)
    q_attn: AttentionParams
    answer_mlp: MlpParams  # tail of the candidate encoder


@dataclass
class QaModel:
    config: ModelConfig
    mlp_s: MlpParams
    mlp_d: MlpParams
    encoder: EncoderParams
    text: TextParams
    cross: AttentionParams

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for tag, mlp in (("mlp_s", self.mlp_s), ("mlp_d", self.mlp_d)):
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                out += [(f"{tag}.w{i}", w), (f"{tag}.b{i}", b)]
        out += [(f"enc.{n}", t) for n, t in self.encoder.named_parameters()]
        out.append(("text.embedding", self.text.embedding))
        out += [
            ("text.q.wq", self.text.q_attn.wq),
            ("text.q.wk", self.text.q_attn.wk),
            ("text.q.wv", self.text.q_attn.wv),
        ]
        for i, (w, b) in enumerate(zip(self.text.answer_mlp.weights, self.text.answer_mlp.biases)):
            out += [(f"text.answer.w{i}", w), (f"text.answer.b{i}", b)]
        out += [("cross.wq", self.cross.wq), ("cross.wk", self.cross.wk), ("cross.wv", self.cross.wv)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_model(config: ModelConfig, seed: int) -> QaModel:
    rng = np.random.default_rng(seed)
    r = config.latent_dim
    hidden = list(config.feature_hidden)
    cfg = config.kernel_config()
    mlp_s = nc.mlp_init([config.d_o, *hidden, r], rng)
    mlp_d = nc.mlp_init([config.d_o + config.d_a, *hidden, r], rng)
    encoder = encoder_init(cfg, rng, n_standard_layers=config.n_standard_layers)
    bound = 1.0 / math.sqrt(r)
    text = TextParams(
        embedding=Tensor(rng.uniform(-bound, bound, size=(config.vocab_size, r)), requires_grad=True),
        q_attn=attention_init(r, rng),
        answer_mlp=nc.mlp_init([r, r], rng),
    )
    cross = attention_init(r, rng)
    return QaModel(config, mlp_s, mlp_d, encoder, text, cross)


# ---------------------------------------------------------------------------
# forward pieces


def _check_tokens(tokens, vocab: int) -> None:
    for t in tokens:
        if not (0 <= t < vocab):
            raise ValidationError(f"token id {t} outside vocabulary of size {vocab}")


def encode_question(tokens, text: TextParams, heads: int) -> Tensor:
    """Embed tokens and self-attend once; columns are token positions."""
    if len(tokens) == 0:
        raise ValidationError("cannot encode an empty question")
    _check_tokens(tokens, text.embedding.data.shape[0])
    emb = nc.transpose(nc.gather_rows(text.embedding, list(tokens)))  # (r, len)
    return standard_attention(emb, text.q_attn, heads)


def condition_on_question(
    graph_feats: Tensor, q_feats: Tensor, cross: AttentionParams, heads: int
) -> Tensor:
    """Cross-attend question queries over graph keys/values, mean-pooled to (r, 1)."""
    r, n = graph_feats.data.shape
    if q_feats.data.shape[0] != r:
        raise ValidationError("question and graph features disagree on latent width")
    if n == 0 or q_feats.data.shape[1] == 0:
        raise ValidationError("conditioning requires nonempty graph and question features")
    r_k = r // heads
    q = nc.matmul(cross.wq, q_feats)
    k = nc.matmul(cross.wk, graph_feats)
    v = nc.matmul(cross.wv, graph_feats)
    outs = []
    for i in range(heads):
        lo, hi = i * r_k, (i + 1) * r_k
        qi, ki, vi = nc.rows(q, lo, hi), nc.rows(k, lo, hi), nc.rows(v, lo, hi)
        scores = nc.matmul(nc.transpose(qi), ki) * (1.0 / math.sqrt(r_k))
        outs.append(nc.matmul(vi, nc.transpose(nc.softmax_rows(scores))))
    return nc.tmean(nc.concat(outs, axis=0), axis=1, keepdims=True)


def encode_candidate(question, answer_tokens, text: TextParams) -> Tensor:
    """Candidate embedding: lookup of question||answer, mean-pool, MLP; (r, 1)."""
    tokens = list(question) + list(answer_tokens)
    _check_tokens(tokens, text.embedding.data.shape[0])
    pooled = nc.tmean(nc.transpose(nc.gather_rows(text.embedding, tokens)), axis=1, keepdims=True)
    return nc.mlp_forward(text.answer_mlp, pooled)


def score_answers(fq: Tensor, answers: Tensor) -> Tensor:
    """Inner-product logits of the conditioned feature against candidate columns."""
    if answers.data.shape[0] != fq.data.shape[0]:
        raise ValidationError("answer embeddings and conditioned feature widths differ")
    if answers.data.shape[1] < 2:
        raise ValidationError("scoring needs at least 2 candidates")
    return nc.reshape(nc.matmul(nc.transpose(answers), fq), (answers.data.shape[1],))


def _logsumexp(x: Tensor) -> Tensor:
    c = float(x.data.max())
    return nc.log(nc.tsum(nc.exp(x - c))) + c


def augmented_loss(
    batch: list[QaInstance], fqs: list[Tensor], text: TextParams
) -> tuple[Tensor, list[np.ndarray]]:
    """Cross-entropy over every candidate in the batch, duplicate answers masked.

    Candidates byte-identical to an instance's ground-truth answer (other than
    the ground truth itself) are pushed to -inf before the softmax. Returns the
    mean loss and each instance's raw logits over its own candidates.
    """
    if not batch:
        raise ValidationError("empty batch")
    if len(fqs) != len(batch):
        raise ValidationError("one conditioned feature is needed per instance")
    encs = []
    answers = []
    offsets = [0]
    for inst in batch:
        for cand in inst.candidates:
            encs.append(encode_candidate(inst.question, cand, text))
            answers.append(tuple(cand))
        offsets.append(len(encs))
    all_enc = nc.concat(encs, axis=1)  # (r, total)
    total = len(encs)

    loss_sum = None
    own_logits: list[np.ndarray] = []
    for i, (inst, fq) in enumerate(zip(batch, fqs)):
        logits = nc.reshape(nc.matmul(nc.transpose(all_enc), fq), (total,))
        gt_pos = offsets[i] + inst.gt_index
        gt_answer = tuple(inst.candidates[inst.gt_index])
        mask = np.zeros(total)
        for j, ans in enumerate(answers):
            if j != gt_pos and ans == gt_answer:
                mask[j] = MASK_LOGIT
        masked = logits + Tensor(mask)
        li = _logsumexp(masked) - nc.take(masked, gt_pos)
        loss_sum = li if loss_sum is None else loss_sum + li
        own_logits.append(logits.data[offsets[i] : offsets[i + 1]].copy())
    return loss_sum * (1.0 / len(batch)), own_logits


# ---------------------------------------------------------------------------
# per-video caches and the full forward pass


@dataclass
class GraphBundle:
    inputs: NodeInputs
    smax: list[Tensor]  # row-softmaxed kernel matrix per level (parameter-free)


def build_bundles(
    graphs: dict[str, SceneGraph25D], cfg: KernelConfig
) -> dict[str, GraphBundle]:
    bundles = {}
    for vid, g in graphs.items():
        inputs = node_inputs(g)
        bundles[vid] = GraphBundle(
            inputs=inputs,
            smax=kernel_softmax_levels(inputs.positions, inputs.time_obs, cfg),
        )
    return bundles


def encode_graph(model: QaModel, bundle: GraphBundle) -> Tensor:
    cfg = model.config.kernel_config()
    nfm = project_inputs(bundle.inputs, model.mlp_s, model.mlp_d)
    if model.config.combine:
        return combined_encoding(nfm, cfg, model.encoder, smax_levels=bundle.smax)
    return hierarchical_attention(
        nfm, cfg, model.encoder.level_mlps, model.encoder.kernel_values, smax_levels=bundle.smax
    )


def instance_fq(model: QaModel, bundle_feats: Tensor, inst: QaInstance) -> Tensor:
    q_feats = encode_question(inst.question, model.text, model.config.heads)
    return condition_on_question(bundle_feats, q_feats, model.cross, model.config.heads)


def batch_forward(
    model: QaModel, bundles: dict[str, GraphBundle], batch: list[QaInstance]
) -> tuple[Tensor, int]:
    """Loss over one batch plus the number of correctly argmaxed instances."""
    feat_cache: dict[str, Tensor] = {}
    fqs = []
    for inst in batch:
        if inst.video_id not in bundles:
            raise ValidationError(f"instance references unknown video {inst.video_id!r}")
        if inst.video_id not in feat_cache:
            feat_cache[inst.video_id] = encode_graph(model, bundles[inst.video_id])
        fqs.append(instance_fq(model, feat_cache[inst.video_id], inst))
    loss, own_logits = augmented_loss(batch, fqs, model.text)
    correct = sum(
        1 for inst, lg in zip(batch, own_logits) if int(np.argmax(lg)) == inst.gt_index
    )
    return loss, correct


# ---------------------------------------------------------------------------
# training and evaluation


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _epoch_order(instances: list[QaInstance], seed: int, epoch: int) -> list[int]:
    """Deterministic shuffle keeping each video's instances adjacent."""
    rng = np.random.default_rng([seed, epoch])
    by_video: dict[str, list[int]] = {}
    for idx, inst in enumerate(instances):
        by_video.setdefault(inst.video_id, []).append(idx)
    vids = sorted(by_video)
    rng.shuffle(vids)
    order: list[int] = []
    for vid in vids:
        idxs = by_video[vid][:]
        rng.shuffle(idxs)
        order.extend(idxs)
    return order


def train(
    instances: list[QaInstance],
    graphs: dict[str, SceneGraph25D],
    model_config: ModelConfig,
    train_config: TrainConfig,
    epochs: int,
    seed: int,
    val_instances: list[QaInstance] | None = None,
) -> tuple[QaModel, dict]:
    """Full pipeline training; deterministic in (configs, seed, data)."""
    if not instances:
        raise ValidationError("empty training dataset")
    model = init_model(model_config, seed)
    bundles = build_bundles(graphs, model_config.kernel_config())
    opt = Adam(
        model.parameters(),
        lr=train_config.lr,
        beta1=train_config.beta1,
        beta2=train_config.beta2,
        eps=train_config.eps,
    )
    epoch_records = []
    for epoch in range(epochs):
        order = _epoch_order(instances, seed, epoch)
        total_loss = 0.0
        total_correct = 0
        n_batches = 0
        for lo in range(0, len(order), train_config.batch_size):
            batch = [instances[i] for i in order[lo : lo + train_config.batch_size]]
            opt.zero_grad()
            loss, correct = batch_forward(model, bundles, batch)
            nc.backward(loss)
            opt.step()
            total_loss += loss.item()
            total_correct += correct
            n_batches += 1
        record = {
            "epoch": epoch,
            "train_loss": total_loss / n_batches,
            "train_accuracy": total_correct / len(instances),
        }
        if val_instances is not None:
            record["val_accuracy"] = evaluate(val_instances, graphs, model, bundles)["accuracy"]
        epoch_records.append(record)
    metrics = {
        "format": METRICS_FORMAT,
        "version": METRICS_VERSION,
        "epochs": epoch_records,
        "steps": 0 if train_config.lr == 0.0 else opt.t,
    }
    return model, metrics


def evaluate(
    instances: list[QaInstance],
    graphs: dict[str, SceneGraph25D],
    model: QaModel,
    bundles: dict[str, GraphBundle] | None = None,
) -> dict:
    """Accuracy and 1-based mean rank of the ground-truth answer."""
    if not instances:
        raise ValidationError("empty evaluation dataset")
    if bundles is None:
        used = {inst.video_id for inst in instances}
        bundles = build_bundles(
            {v: g for v, g in graphs.items() if v in used}, model.config.kernel_config()
        )
    feat_cache: dict[str, Tensor] = {}
    correct = 0
    rank_sum = 0.0
    for inst in instances:
        if inst.video_id not in bundles:
            raise ValidationError(f"instance references unknown video {inst.video_id!r}")
        if inst.video_id not in feat_cache:
            feat_cache[inst.video_id] = encode_graph(model, bundles[inst.video_id])
        fq = instance_fq(model, feat_cache[inst.video_id], inst)
        encs = [encode_candidate(inst.question, c, model.text) for c in inst.candidates]
        logits = score_answers(fq, nc.concat(encs, axis=1)).data
        gt = inst.gt_index
        if int(np.argmax(logits)) == gt:
            correct += 1
        rank = 1 + int(np.sum(logits > logits[gt])) + int(np.sum(logits[:gt] == logits[gt]))
        rank_sum += rank
    return {"accuracy": correct / len(instances), "mean_rank": rank_sum / len(instances)}


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: str | Path, model: QaModel, seed: int, step: int) -> None:
    header = {"config": model.config.to_json(), "seed": seed, "step": step}
    nc.save_checkpoint(path, header, model.named_parameters())


def load_model(path: str | Path) -> tuple[QaModel, dict]:
    header, arrays = nc.load_checkpoint(path)
    config = ModelConfig.from_json(header["config"])
    model = init_model(config, seed=int(header["seed"]))
    for name, tensor in model.named_parameters():
        if name not in arrays:
            raise ValidationError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != tensor.data.shape:
            raise ValidationError(f"checkpoint parameter {name} has the wrong shape")
        tensor.data = arrays[name]
    return model, header
