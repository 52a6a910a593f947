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
    build_bundles,
    combined_encoding,
    hierarchical_attention,
    multihead_attention,
    project_nodes,
    DEFAULT_BANDWIDTHS,
    MASK_LOGIT,
)
from .compact import MatchParams
from .errors import ParseError, ValidationError, located
from .graph import DEFAULT_INTRINSICS, SceneGraph25D
from .lift import Intrinsics
from .numcore import Adam, Affine, Tensor
from .schema import COUNT, INT, STR, check, jsonl_blocks, list_of, read, typed_prefix

METRICS_FORMAT = "prism25d-metrics"
METRICS_VERSION = 1
EVAL_BATCH = 16  # instances `evaluate` scores at once, as many as a default training batch
# Most parameters a ModelConfig may imply: 134 MB per f64 copy, and training holds about five
# (data, gradient, Adam's m and v, the flat gradient)
MAX_PARAMETERS = 2**24


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


def _check_tokens(tokens, vocab: int) -> None:
    for t in tokens:
        if not (0 <= t < vocab):
            raise ValidationError(f"token id {t} outside vocabulary of size {vocab}")


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
    # the pipeline that built the training graphs, by which `eval` builds its own
    match: MatchParams = MatchParams()
    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    max_frames: int | None = None  # None: each detection file's frame span
    registry_digest: str | None = None  # None: any registry

    def __post_init__(self):
        if self.sigma_t is not None and len(self.sigma_t) != len(self.sigma_s):
            raise ValidationError("sigma_s and sigma_t hierarchies differ in length")
        if not self.sigma_s:
            raise ValidationError("kernel hierarchy needs at least one level")
        if not all(0.0 < sigma < math.inf for sigma in (*self.sigma_s, *(self.sigma_t or ()))):
            raise ValidationError("kernel bandwidths must be positive and finite")
        for name, low in (("d_o", 1), ("d_a", 0), ("vocab_size", 1), ("latent_dim", 1),
                          ("n_standard_layers", 0), ("max_frames", 1)):
            value = getattr(self, name)
            if value is not None and value < low:  # only max_frames may be None
                raise ValidationError(f"{name} must be at least {low}, got {value}")
        if self.heads < 1 or self.latent_dim % self.heads != 0:
            raise ValidationError(
                f"latent_dim {self.latent_dim} must divide evenly into {self.heads} heads"
            )
        count = sum(math.prod(shape) for _, shape in _manifest(self))
        if count > MAX_PARAMETERS:
            raise ValidationError(f"the model's {count} parameters exceed the limit of {MAX_PARAMETERS}")

    def kernel_config(self) -> tuple[tuple[float, float], ...]:
        """The (sigma_s, sigma_t) pair of each kernel level."""
        return tuple(zip(self.sigma_s, self.sigma_s if self.sigma_t is None else self.sigma_t))


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
    params: dict[str, Tensor]  # every parameter above by its checkpoint name, in manifest order

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def _build(config: ModelConfig, make) -> QaModel:
    """The model `config` describes, each parameter the result of `make(name, shape, fan_in)`,
    called in manifest order; `fan_in` sets the parameter's init bound, 1/sqrt(fan_in)."""
    r = config.latent_dim
    params = {}

    def tensor(name, shape, fan_in):
        params[name] = made = make(name, shape, fan_in)
        return made

    def affine(name, n_in, n_out):
        return Affine(tensor(f"{name}.w0", (n_out, n_in), n_in), tensor(f"{name}.b0", (n_out, 1), n_in))

    def attention(name):
        return AttentionParams(*(tensor(f"{name}.{w}", (r, r), r) for w in ("wq", "wk", "wv")))

    mlp_s = affine("mlp_s", config.d_o, r)
    mlp_d = affine("mlp_d", config.d_o + config.d_a, r)
    encoder = EncoderParams(
        standard=[attention(f"enc.std{i}") for i in range(config.n_standard_layers)],
        kernel_values=tensor("enc.kernel.wv", (r, r), r),
        levels=[affine(f"enc.level{j}", r, r) for j in range(len(config.sigma_s))],
        comb=affine("enc.comb", r, r),
    )
    text = TextParams(tensor("text.embedding", (config.vocab_size, r), r), attention("text.q"),
                      affine("text.answer", r, r))
    return QaModel(config, mlp_s, mlp_d, encoder, text, attention("cross"), params)


def _manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) of every parameter of `config`'s model, in manifest order; allocates none."""
    manifest = []
    _build(config, lambda name, shape, fan_in: manifest.append((name, shape)))
    return manifest


def init_model(config: ModelConfig, seed: int) -> QaModel:
    """Every parameter drawn Uniform(+-1/sqrt(fan_in)) from `seed`'s generator, in manifest order."""
    rng = np.random.default_rng(seed)

    def draw(name, shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    return _build(config, draw)


# ---------------------------------------------------------------------------
# forward pieces


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
    tokens = [t for q in questions for t in q]
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
    attended = multihead_attention(q_feats, graph_feats, cross, heads)
    return nc.matmul(attended, Tensor(_segment_mean(lengths)))


def encode_candidates(instances: list[QaInstance], text: TextParams) -> Tensor:
    """Every candidate of the instances, in order: lookup of question||answer, mean-pool, affine.

    Returns (r, total candidates).
    """
    seqs = [inst.question + cand for inst in instances for cand in inst.candidates]
    tokens = [t for seq in seqs for t in seq]
    emb = nc.transpose(nc.gather_rows(text.embedding, tokens))  # (r, tokens)
    pooled = nc.matmul(emb, Tensor(_segment_mean([len(seq) for seq in seqs])))
    return text.answer(pooled)


def score_answers(fq: Tensor, answers: Tensor) -> Tensor:
    """Inner-product logits, (candidates, features): every answer column against every fq column."""
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


def _check_finite(loss: Tensor, where: str) -> None:
    """A non-finite loss, as any non-finite answer score makes it, is a ValidationError."""
    if not math.isfinite(loss.item()):
        raise ValidationError(f"{where}: the model's answer scores are not finite (loss {loss.item()})")


# ---------------------------------------------------------------------------
# the full forward pass


def encode_graph(model: QaModel, bundle: GraphBundle) -> Tensor:
    features = project_nodes(bundle, model.mlp_s, model.mlp_d)
    if model.config.combine:
        return combined_encoding(features, model.config.heads, model.encoder, bundle.smax)
    return hierarchical_attention(
        features, model.encoder.levels, model.encoder.kernel_values, bundle.smax
    )


def _by_video(instances: list[QaInstance]) -> dict[str, list[int]]:
    """Each video's instance indices, in list order; videos in first-appearance order."""
    by_video: dict[str, list[int]] = {}
    for i, inst in enumerate(instances):
        by_video.setdefault(inst.video_id, []).append(i)
    return by_video


def question_features(
    model: QaModel, bundles: dict[str, GraphBundle], instances: list[QaInstance]
) -> Tensor:
    """Each instance's question-conditioned graph feature: one column per instance, in order.

    Instances are grouped by video: each graph is encoded once, and all of
    its questions are self-attended and then cross-attended over its nodes
    together. `bundles[vid]` is looked up once per video, as that video's
    block begins, and the block is finished before the next lookup.
    """
    heads = model.config.heads
    by_video = _by_video(instances)
    blocks = []
    for vid, idxs in by_video.items():
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
    epochs: int = 25  # artifact default
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:
            raise ValidationError(f"lr must be finite and not negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must not be negative, got {self.epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must not be negative, got {self.seed}")


def _epoch_order(instances: list[QaInstance], seed: int, epoch: int) -> list[int]:
    """Deterministic shuffle keeping each video's instances adjacent."""
    rng = np.random.default_rng([seed, epoch])
    by_video = _by_video(instances)
    vids = sorted(by_video)
    rng.shuffle(vids)
    order: list[int] = []
    for vid in vids:
        rng.shuffle(by_video[vid])
        order.extend(by_video[vid])
    return order


def _check_inputs(
    instances: list[QaInstance], graphs: dict[str, SceneGraph25D], config: ModelConfig
) -> None:
    """The first instance, in list order, that the forward pass cannot take is a ValidationError:
    its video is not among `graphs`, a token lies outside [0, vocab_size), or its graph's feature
    or (with dynamic nodes) motion width is not the model's. The forward pass trusts what passes."""
    for inst in instances:
        vid, graph = inst.video_id, graphs.get(inst.video_id)
        if graph is None:
            raise ValidationError(f"instance references unknown video {vid!r}")
        _check_tokens(inst.question + sum(inst.candidates, ()), config.vocab_size)
        if graph.features.shape[1] != config.d_o:
            raise ValidationError(f"video {vid!r}: nodes carry {graph.features.shape[1]} feature "
                                  f"values, the model takes {config.d_o}")
        if len(graph.motions) and graph.motions.shape[1] != config.d_a:
            raise ValidationError(f"video {vid!r}: dynamic nodes carry {graph.motions.shape[1]} "
                                  f"motion values, the model takes {config.d_a}")


def train(
    instances: list[QaInstance],
    graphs: dict[str, SceneGraph25D],
    model_config: ModelConfig,
    train_config: TrainConfig,
    val_instances: list[QaInstance] | None = None,
) -> tuple[QaModel, dict]:
    """Full pipeline training; deterministic in (configs, data). A non-finite loss is a
    ValidationError naming its epoch and its step or `evaluate`'s validation chunk, from 0."""
    if not instances:
        raise ValidationError("empty training dataset")
    if val_instances == []:
        raise ValidationError("empty validation dataset")
    model = init_model(model_config, train_config.seed)
    bundles = build_bundles(graphs, model_config.kernel_config())
    _check_inputs(instances + (val_instances or []), graphs, model_config)
    opt = Adam(model.parameters(), lr=train_config.lr)
    epoch_records = []
    for epoch in range(train_config.epochs):
        order = _epoch_order(instances, train_config.seed, epoch)
        total_loss = 0.0
        total_correct = 0
        n_batches = 0
        for lo in range(0, len(order), train_config.batch_size):
            batch = [instances[i] for i in order[lo : lo + train_config.batch_size]]
            opt.zero_grad()
            loss, correct = batch_forward(model, bundles, batch)
            _check_finite(loss, f"epoch {epoch}, step {n_batches}")
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
            with located(f"epoch {epoch}, validation"):
                record["val_accuracy"] = evaluate(val_instances, graphs, model, bundles)["accuracy"]
        epoch_records.append(record)
    metrics = {
        "format": METRICS_FORMAT,
        "version": METRICS_VERSION,
        "epochs": epoch_records,
        "steps": 0 if train_config.lr == 0.0 else opt.t,
    }
    return model, metrics


class _BuiltOnLookup:
    """`bundles[vid]` as `build_bundles` of `graphs[vid]` alone, built afresh on each lookup
    and kept by nothing here."""

    def __init__(self, graphs: dict[str, SceneGraph25D], levels: tuple[tuple[float, float], ...]):
        self.graphs, self.levels = graphs, levels

    def __getitem__(self, vid: str) -> GraphBundle:
        return build_bundles({vid: self.graphs[vid]}, self.levels)[vid]


def evaluate(
    instances: list[QaInstance],
    graphs: dict[str, SceneGraph25D],
    model: QaModel,
    bundles: dict[str, GraphBundle] | None = None,
) -> dict:
    """Accuracy and 1-based mean rank of the ground-truth answer, ranked by `augmented_loss` in
    chunks of `EVAL_BATCH` instances; records no autodiff tape. `bundles`, when given, are
    `build_bundles` of `graphs`; otherwise each video's bundle is built when that video is
    encoded and dropped after, so one bundle is held at a time. The instances pass
    `_check_inputs` first. A chunk whose loss is not finite is a ValidationError naming the
    chunk's first instance, counted from 0."""
    if not instances:
        raise ValidationError("empty evaluation dataset")
    _check_inputs(instances, graphs, model.config)
    if bundles is None:
        bundles = _BuiltOnLookup(graphs, model.config.kernel_config())
    with nc.no_grad():
        fq = question_features(model, bundles, instances).data
        spans = [slice(lo, lo + EVAL_BATCH) for lo in range(0, len(instances), EVAL_BATCH)]
        scored = [augmented_loss(instances[s], Tensor(fq[:, s]), model.text) for s in spans]
    for s, (loss, _) in zip(spans, scored):
        _check_finite(loss, f"instance {s.start} of {len(instances)}")
    ranks = np.concatenate([chunk_ranks for _, chunk_ranks in scored])
    return {"accuracy": int(np.sum(ranks == 1)) / len(ranks), "mean_rank": int(ranks.sum()) / len(ranks)}


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: str | Path, model: QaModel, seed: int, step: int) -> None:
    header = {"config": asdict(model.config), "seed": seed, "step": step}
    nc.save_checkpoint(path, header, model.named_parameters())


def load_model(path: str | Path) -> tuple[QaModel, dict]:
    """A checkpoint's model, whose manifest lists its parameters in order; see `nc.load_checkpoint`.
    The manifest is compared with the config's parameter list before any parameter is built, and
    loading draws no random numbers."""
    header, arrays = nc.load_checkpoint(path)
    check(header, {"seed": COUNT, "step": COUNT})
    config = read(ModelConfig, header.get("config"))  # a missing or mistyped field is a ParseError
    manifest = _manifest(config)
    listed = [item["name"] for item in header["params"]]
    for i, (got, want) in enumerate(zip_longest(listed, (n for n, _ in manifest))):
        if got != want:
            raise ValidationError(f"checkpoint manifest entry {i} is {got!r}, the model's is {want!r}")
    for name, shape in manifest:
        if arrays[name].shape != shape:
            raise ValidationError(f"checkpoint parameter {name} has the wrong shape")
    return _build(config, lambda name, shape, fan_in: Tensor(arrays[name], requires_grad=True)), header
