"""Question conditioning, answer scoring, and the training/evaluation loops."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import numcore as nc
from .attention import (
    AttentionParams,
    EncoderParams,
    GraphBundle,
    attention_init,
    build_bundles,
    combined_encoding,
    encoder_init,
    hierarchical_attention,
    multihead_attention,
    project_nodes,
    DEFAULT_BANDWIDTHS,
    MASK_LOGIT,
)
from .errors import ParseError, ValidationError
from .graph import SceneGraph25D
from .numcore import Adam, Affine, Tensor
from .schema import COUNT, INT, STR, check, jsonl_blocks, list_of, read, typed_prefix

METRICS_FORMAT = "prism25d-metrics"
METRICS_VERSION = 1
EVAL_BATCH = 16  # instances `evaluate` scores at once, as many as a default training batch


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


_QA_FIELDS = {
    "video_id": STR, "question": list_of(INT), "candidates": list_of(list_of(INT)), "gt": INT,
}


def load_qa(path: str | Path, vocab: int | None = None) -> list[QaInstance]:
    """Read a QA JSONL file; a line with a missing or mistyped field, or a token outside
    [0, vocab) when `vocab` is given, is a ParseError naming the first such line."""
    out = []
    for lines, records in jsonl_blocks(path):
        cols, fault = typed_prefix(records, _QA_FIELDS, lines)
        for lineno, vid, question, candidates, gt in zip(
            lines, cols["video_id"], cols["question"], cols["candidates"], cols["gt"]
        ):
            try:
                inst = QaInstance(vid, tuple(question), tuple(map(tuple, candidates)), gt)
                if vocab is not None:
                    _check_tokens(question + [t for c in candidates for t in c], vocab)
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            out.append(inst)
        if fault is not None:
            raise fault
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
    n_standard_layers: int = 1
    combine: bool = True  # False feeds the hierarchical branch alone downstream

    def __post_init__(self):
        if self.sigma_t is not None and len(self.sigma_t) != len(self.sigma_s):
            raise ValidationError("sigma_s and sigma_t hierarchies differ in length")
        if not self.sigma_s:
            raise ValidationError("kernel hierarchy needs at least one level")
        if not all(0.0 < sigma < math.inf for sigma in (*self.sigma_s, *(self.sigma_t or ()))):
            raise ValidationError("kernel bandwidths must be positive and finite")
        for name, low in (("d_o", 1), ("d_a", 0), ("vocab_size", 1), ("latent_dim", 1),
                          ("n_standard_layers", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.heads < 1 or self.latent_dim % self.heads != 0:
            raise ValidationError(
                f"latent_dim {self.latent_dim} must divide evenly into {self.heads} heads"
            )

    def kernel_config(self) -> tuple[tuple[float, float], ...]:
        """The (sigma_s, sigma_t) pair of each kernel level."""
        return tuple(zip(self.sigma_s, self.sigma_s if self.sigma_t is None else self.sigma_t))

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj) -> "ModelConfig":
        """Config from a checkpoint header; a missing or mistyped field is a ParseError."""
        return read(ModelConfig, obj)


@dataclass
class TextParams:
    embedding: Tensor  # (vocab, r)
    q_attn: AttentionParams
    answer: Affine  # tail of the candidate encoder


@dataclass
class QaModel:
    config: ModelConfig
    mlp_s: Affine
    mlp_d: Affine
    encoder: EncoderParams
    text: TextParams
    cross: AttentionParams

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.mlp_s.named_parameters("mlp_s") + self.mlp_d.named_parameters("mlp_d")
        out += [(f"enc.{n}", t) for n, t in self.encoder.named_parameters()]
        out.append(("text.embedding", self.text.embedding))
        out += self.text.q_attn.named_parameters("text.q")
        out += self.text.answer.named_parameters("text.answer")
        return out + self.cross.named_parameters("cross")

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_model(config: ModelConfig, seed: int) -> QaModel:
    rng = np.random.default_rng(seed)
    r = config.latent_dim
    mlp_s = nc.affine_init(config.d_o, r, rng)
    mlp_d = nc.affine_init(config.d_o + config.d_a, r, rng)
    encoder = encoder_init(r, len(config.sigma_s), rng, n_standard_layers=config.n_standard_layers)
    bound = 1.0 / math.sqrt(r)
    text = TextParams(
        embedding=Tensor(rng.uniform(-bound, bound, size=(config.vocab_size, r)), requires_grad=True),
        q_attn=attention_init(r, rng),
        answer=nc.affine_init(r, r, rng),
    )
    cross = attention_init(r, rng)
    return QaModel(config, mlp_s, mlp_d, encoder, text, cross)


# ---------------------------------------------------------------------------
# forward pieces


def _check_tokens(tokens, vocab: int) -> None:
    for t in tokens:
        if not (0 <= t < vocab):
            raise ValidationError(f"token id {t} outside vocabulary of size {vocab}")


def _segment_ids(lengths: list[int]) -> np.ndarray:
    return np.repeat(np.arange(len(lengths)), lengths)


def _segment_mean(lengths: list[int]) -> np.ndarray:
    """Constant (sum(lengths), len(lengths)) matrix; X @ it averages X's column runs."""
    out = np.zeros((sum(lengths), len(lengths)))
    weights = np.repeat(1.0 / np.asarray(lengths), lengths)
    out[np.arange(out.shape[0]), _segment_ids(lengths)] = weights
    return out


def encode_questions(questions: list[tuple[int, ...]], text: TextParams, heads: int) -> Tensor:
    """Embed every question's tokens and self-attend within each question.

    Columns are token positions, question after question; a block mask keeps
    each token's attention inside its own question.
    """
    if not questions or not all(questions):
        raise ValidationError("cannot encode an empty question")
    tokens = [t for q in questions for t in q]
    _check_tokens(tokens, text.embedding.data.shape[0])
    seg = _segment_ids([len(q) for q in questions])
    mask = np.where(seg[:, None] == seg[None, :], 0.0, MASK_LOGIT)
    emb = nc.transpose(nc.gather_rows(text.embedding, tokens))  # (r, tokens)
    return multihead_attention(emb, emb, text.q_attn, heads, mask=mask)


def condition_on_questions(
    graph_feats: Tensor, q_feats: Tensor, lengths: list[int], cross: AttentionParams, heads: int
) -> Tensor:
    """Cross-attend question token columns over graph keys/values; (r, questions).

    `lengths` splits the token columns into questions; each question's
    attended tokens are mean-pooled into its column.
    """
    r, n = graph_feats.data.shape
    if q_feats.data.shape[0] != r:
        raise ValidationError("question and graph features disagree on latent width")
    if n == 0 or q_feats.data.shape[1] == 0:
        raise ValidationError("conditioning requires nonempty graph and question features")
    if sum(lengths) != q_feats.data.shape[1]:
        raise ValidationError("question lengths do not cover the question token columns")
    attended = multihead_attention(q_feats, graph_feats, cross, heads)
    return nc.matmul(attended, Tensor(_segment_mean(lengths)))


def encode_candidates(instances: list[QaInstance], text: TextParams) -> Tensor:
    """Every candidate of the instances, in order: lookup of question||answer, mean-pool, affine.

    Returns (r, total candidates).
    """
    seqs = [inst.question + cand for inst in instances for cand in inst.candidates]
    tokens = [t for seq in seqs for t in seq]
    _check_tokens(tokens, text.embedding.data.shape[0])
    emb = nc.transpose(nc.gather_rows(text.embedding, tokens))  # (r, tokens)
    pooled = nc.matmul(emb, Tensor(_segment_mean([len(seq) for seq in seqs])))
    return text.answer(pooled)


def score_answers(fq: Tensor, answers: Tensor) -> Tensor:
    """Inner-product logits, (candidates, features): every answer column against every fq column."""
    if answers.data.shape[0] != fq.data.shape[0]:
        raise ValidationError("answer embeddings and conditioned feature widths differ")
    return nc.matmul(nc.transpose(answers), fq)


def augmented_loss(
    batch: list[QaInstance], fq: Tensor, text: TextParams
) -> tuple[Tensor, np.ndarray]:
    """Cross-entropy over every candidate in the batch, duplicate answers masked.

    `fq` holds one conditioned feature column per instance. The logits form
    one (candidates, instances) matrix; in an instance's column, candidates
    byte-identical to its ground-truth answer (other than the ground truth
    itself) are pushed to -inf before the column's log-sum-exp. Returns the
    mean loss and each instance's 1-based rank of its ground truth among its
    own candidates' raw logits. A candidate ranks ahead unless its logit is
    lower, or equal and later, so rank 1 is `np.argmax` on finite logits and
    an instance with a NaN logit never ranks 1.
    """
    if not batch:
        raise ValidationError("empty batch")
    if fq.data.shape[1] != len(batch):
        raise ValidationError("one conditioned feature is needed per instance")
    logits = score_answers(fq, encode_candidates(batch, text))  # (C, B)
    counts = [len(inst.candidates) for inst in batch]
    cols = np.arange(len(batch))
    gt_pos = np.cumsum([0] + counts[:-1]) + [inst.gt_index for inst in batch]
    answer_ids: dict[tuple[int, ...], int] = {}  # equal answers share an id
    ids = np.array(
        [answer_ids.setdefault(c, len(answer_ids)) for inst in batch for c in inst.candidates]
    )
    duplicate = ids[:, None] == ids[gt_pos][None, :]
    duplicate[gt_pos, cols] = False
    masked = logits + Tensor(np.where(duplicate, MASK_LOGIT, 0.0))
    shift = masked.data.max(axis=0, keepdims=True)  # constant, for a stable exp
    lse = nc.log(nc.tsum(nc.exp(masked - shift), axis=0, keepdims=True)) + shift
    gt_onehot = np.zeros(logits.data.shape)
    gt_onehot[gt_pos, cols] = 1.0
    picked = nc.tsum(logits * Tensor(gt_onehot), axis=0, keepdims=True)
    raw, gt_raw = logits.data, logits.data[gt_pos, cols]
    behind = (raw < gt_raw) | ((raw == gt_raw) & (np.arange(len(raw))[:, None] > gt_pos))
    ahead = (_segment_ids(counts)[:, None] == cols) & ~behind
    ahead[gt_pos, cols] = False
    return nc.tsum(lse - picked) * (1.0 / len(batch)), 1 + ahead.sum(axis=0)


# ---------------------------------------------------------------------------
# the full forward pass


def encode_graph(model: QaModel, bundle: GraphBundle) -> Tensor:
    features = project_nodes(bundle, model.mlp_s, model.mlp_d)
    if model.config.combine:
        return combined_encoding(features, model.config.heads, model.encoder, bundle.smax)
    return hierarchical_attention(
        features, model.encoder.levels, model.encoder.kernel_values, bundle.smax
    )


def question_features(
    model: QaModel, bundles: dict[str, GraphBundle], instances: list[QaInstance]
) -> Tensor:
    """Each instance's question-conditioned graph feature: one column per instance, in order.

    Instances are grouped by video: each graph is encoded once, and all of
    its questions are self-attended and then cross-attended over its nodes
    together.
    """
    heads = model.config.heads
    by_video: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        by_video.setdefault(inst.video_id, []).append(i)
    blocks = []
    for vid, idxs in by_video.items():
        if vid not in bundles:
            raise ValidationError(f"instance references unknown video {vid!r}")
        questions = [instances[i].question for i in idxs]
        q_feats = encode_questions(questions, model.text, heads)
        graph_feats = encode_graph(model, bundles[vid])
        lengths = [len(q) for q in questions]
        blocks.append(condition_on_questions(graph_feats, q_feats, lengths, model.cross, heads))
    grouped = [i for idxs in by_video.values() for i in idxs]
    return nc.gather_cols(nc.concat(blocks, axis=1), np.argsort(grouped))


def batch_forward(
    model: QaModel, bundles: dict[str, GraphBundle], batch: list[QaInstance]
) -> tuple[Tensor, int]:
    """Loss over one batch plus the number of correctly argmaxed instances."""
    fq = question_features(model, bundles, batch)
    loss, ranks = augmented_loss(batch, fq, model.text)
    return loss, int(np.sum(ranks == 1))


# ---------------------------------------------------------------------------
# training and evaluation


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:
            raise ValidationError(f"lr must be finite and not negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be at least 1, got {self.batch_size}")


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
    if epochs < 0:
        raise ValidationError(f"epochs must not be negative, got {epochs}")
    if seed < 0:
        raise ValidationError(f"seed must not be negative, got {seed}")
    model = init_model(model_config, seed)
    bundles = build_bundles(graphs, model_config.kernel_config())
    opt = Adam(model.parameters(), lr=train_config.lr)
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
    """Accuracy and 1-based mean rank of the ground-truth answer, ranked by `augmented_loss` in
    chunks of `EVAL_BATCH` instances; records no autodiff tape."""
    if not instances:
        raise ValidationError("empty evaluation dataset")
    if bundles is None:
        used = {inst.video_id for inst in instances}
        bundles = build_bundles(
            {v: g for v, g in graphs.items() if v in used}, model.config.kernel_config()
        )
    with nc.no_grad():
        fq = question_features(model, bundles, instances).data
        spans = [slice(lo, lo + EVAL_BATCH) for lo in range(0, len(instances), EVAL_BATCH)]
        ranks = np.concatenate(
            [augmented_loss(instances[s], Tensor(fq[:, s]), model.text)[1] for s in spans]
        )
    return {"accuracy": int(np.sum(ranks == 1)) / len(ranks), "mean_rank": int(ranks.sum()) / len(ranks)}


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: str | Path, model: QaModel, seed: int, step: int) -> None:
    header = {"config": model.config.to_json(), "seed": seed, "step": step}
    nc.save_checkpoint(path, header, model.named_parameters())


def load_model(path: str | Path) -> tuple[QaModel, dict]:
    """A checkpoint's model, whose manifest lists its parameters in order; see `nc.load_checkpoint`."""
    header, arrays = nc.load_checkpoint(path)
    check(header, {"seed": COUNT, "step": COUNT})
    config = ModelConfig.from_json(header.get("config"))
    model = init_model(config, seed=header["seed"])
    listed = [item["name"] for item in header["params"]]
    for i, (got, want) in enumerate(zip_longest(listed, (n for n, _ in model.named_parameters()))):
        if got != want:
            raise ValidationError(f"checkpoint manifest entry {i} is {got!r}, the model's is {want!r}")
    for name, tensor in model.named_parameters():
        if arrays[name].shape != tensor.data.shape:
            raise ValidationError(f"checkpoint parameter {name} has the wrong shape")
        tensor.data = arrays[name]
    return model, header
