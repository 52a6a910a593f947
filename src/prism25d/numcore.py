"""Dense f64 tensors with reverse-mode autodiff, MLP layers, Adam, checkpoints."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .schema import COUNT, OBJECT, STR, check, check_rows, list_of

CHECKPOINT_FORMAT = "prism25d-checkpoint"
CHECKPOINT_VERSION = 1

_recording = ContextVar("recording", default=True)  # False inside no_grad()


class Tensor:
    """Numpy-backed f64 tensor; tracked ops record a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_leaf", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._leaf = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars become constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __mul__(self, other):
        return mul(self, _wrap(other))



def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_grad():
    """Run tensor operations without recording the autodiff tape."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._leaf = False
        out._parents = parents
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: _accum(a, -g))


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b)

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValidationError("matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValidationError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T.copy(), (a,), lambda g: _accum(a, g.T))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: _accum(a, g * mask))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: _accum(a, g * out_data))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValidationError("log requires strictly positive input")
    return _make(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise exp-normalization; stabilized by a constant row-max shift."""
    if a.data.ndim != 2:
        raise ValidationError("softmax_rows expects a 2-D tensor")
    if np.isnan(a.data).any():
        raise ValidationError("softmax_rows input contains NaN")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, (g - dot) * y)

    return _make(y, (a,), bw)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValidationError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = tuple(slice(lo, hi) if d == axis else slice(None) for d in range(g.ndim))
            _accum(t, g[idx])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g):
        z = np.zeros_like(a.data)
        z[start:stop] = g
        _accum(a, z)

    return _make(a.data[start:stop].copy(), (a,), bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        _accum(a, z)

    return _make(a.data[idx].copy(), (a,), bw)


def gather_cols(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        z = np.zeros_like(a.data)
        np.add.at(z.T, idx, g.T)
        _accum(a, z)

    return _make(a.data[:, idx].copy(), (a,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape).copy(), (a,), lambda g: _accum(a, g.reshape(old)))


def take(a: Tensor, index: int) -> Tensor:
    """Single element of a flattened tensor, as a scalar tensor."""
    flat_index = int(index)

    def bw(g):
        z = np.zeros_like(a.data)
        z.reshape(-1)[flat_index] = g
        _accum(a, z)

    return _make(np.asarray(a.data.reshape(-1)[flat_index]), (a,), bw)


def _toposort(root: Tensor) -> list[Tensor]:
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:  # constants have no tape to walk
                stack.append((p, False))
    return topo


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation from a scalar; frees the tape afterwards."""
    if loss.data.size != 1:
        raise ValidationError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        fn = node._backward
        if fn is not None and node.grad is not None:
            fn(node.grad)
        node._backward = None
        node._parents = ()
        if not node._leaf:
            node.grad = None


# ---------------------------------------------------------------------------
# layers


@dataclass
class MlpParams:
    """Affine stack with a relu between layers and none after the last."""

    weights: list[Tensor]  # each (out, in)
    biases: list[Tensor]  # each (out, 1)

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValidationError("mlp layer lists differ in length")
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[1] != self.weights[i - 1].shape[0]:
                raise ValidationError("mlp layer dims do not chain")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out += [(f"{prefix}.w{i}", w), (f"{prefix}.b{i}", b)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters("")]


def mlp_init(dims: list[int], rng: np.random.Generator) -> MlpParams:
    """Uniform(+-1/sqrt(fan_in)) initialization."""
    if len(dims) < 2:
        raise ValidationError("mlp needs at least input and output dims")
    weights, biases = [], []
    for i in range(len(dims) - 1):
        bound = 1.0 / math.sqrt(dims[i])
        weights.append(Tensor(rng.uniform(-bound, bound, size=(dims[i + 1], dims[i])), requires_grad=True))
        biases.append(Tensor(rng.uniform(-bound, bound, size=(dims[i + 1], 1)), requires_grad=True))
    return MlpParams(weights, biases)


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Apply the stack to features-as-columns input (in_dim, n)."""
    if x.data.shape[0] != params.in_dim:
        raise ValidationError(f"mlp expects {params.in_dim} input rows, got {x.data.shape[0]}")
    out = add(matmul(params.weights[0], x), params.biases[0])
    for w, b in zip(params.weights[1:], params.biases[1:]):
        out = add(matmul(w, relu(out)), b)
    return out


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard Adam with bias correction over a fixed parameter list."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValidationError("adam step with a missing gradient; run backward first")
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / b1t
            v_hat = self._v[i] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON header + little-endian f64 blob


def save_checkpoint(path: str | Path, header: dict, named_params: list[tuple[str, Tensor]]) -> None:
    head = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **header,
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in named_params],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(head) + "\n").encode("utf-8"))
        for _, t in named_params:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


_MANIFEST_ENTRY = {"name": STR, "shape": list_of(COUNT)}


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported version {header.get('version')!r}")
        check(header, {"params": list_of(OBJECT)})
        check_rows(header["params"], _MANIFEST_ENTRY)
        arrays: dict[str, np.ndarray] = {}
        for item in header["params"]:
            shape = tuple(item["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise FormatError(f"{path}: truncated parameter blob at {item['name']}")
            arrays[item["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return header, arrays
