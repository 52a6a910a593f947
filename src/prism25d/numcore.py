"""Dense f64 tensors with reverse-mode autodiff, affine layers, Adam, checkpoints."""

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
    for p in parents:
        if p.requires_grad:
            break
    else:  # an op on constants records nothing
        return out
    if _recording.get():
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
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: _accum(a, -g))


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValidationError("matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValidationError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
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
            if t.requires_grad:
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
    visited: set[Tensor] = set()  # Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    emit, push, pop, seen = topo.append, stack.append, stack.pop, visited.add
    while stack:
        node, processed = pop()
        if processed:
            emit(node)
            continue
        if node in visited:
            continue
        seen(node)
        push((node, True))
        for p in node._parents:
            if p.requires_grad and p not in visited:  # constants have no tape to walk
                push((p, False))
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
class Affine:
    """One learned affine map `w @ x + b` of features-as-columns input (in, n)."""

    w: Tensor  # (out, in)
    b: Tensor  # (out, 1)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(self.w, x), self.b)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        """`<prefix>.w0` and `<prefix>.b0`, the names checkpoints carry."""
        return [(f"{prefix}.w0", self.w), (f"{prefix}.b0", self.b)]


def affine_init(n_in: int, n_out: int, rng: np.random.Generator) -> Affine:
    """Uniform(+-1/sqrt(n_in)) initialization, the weight drawn before the bias."""
    bound = 1.0 / math.sqrt(n_in)
    return Affine(Tensor(rng.uniform(-bound, bound, size=(n_out, n_in)), requires_grad=True),
                  Tensor(rng.uniform(-bound, bound, size=(n_out, 1)), requires_grad=True))


# ---------------------------------------------------------------------------
# optimizer


ADAM_DECAY1, ADAM_DECAY2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's usual constants


class Adam:
    """Standard Adam with bias correction over a fixed parameter list. Building it makes each
    parameter's `.data` a view into one flat f64 buffer, which a step updates in one pass."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        if len(set(self.params)) != len(self.params):
            raise ValidationError("adam parameter list holds a tensor twice")
        self.lr = lr
        self.t = 0
        self._flat = np.concatenate([np.zeros(0)] + [p.data.reshape(-1) for p in self.params])
        offset = 0
        for p in self.params:
            p.data = self._flat[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        if any(p.grad is None for p in self.params):
            raise ValidationError("adam step with a missing gradient; run backward first")
        self.t += 1
        b1t = 1.0 - ADAM_DECAY1**self.t
        b2t = 1.0 - ADAM_DECAY2**self.t
        g = np.concatenate([np.zeros(0)] + [p.grad.reshape(-1) for p in self.params])
        self._m = ADAM_DECAY1 * self._m + (1.0 - ADAM_DECAY1) * g
        self._v = ADAM_DECAY2 * self._v + (1.0 - ADAM_DECAY2) * g * g
        m_hat = self._m / b1t
        v_hat = self._v / b2t
        self._flat -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoints: one-line JSON header + little-endian f64 blob


def save_checkpoint(path: str | Path, header: dict, named_params: list[tuple[str, Tensor]]) -> None:
    """Writes the checkpoint. A non-finite parameter is a ValidationError and a non-finite
    header number a ValueError; either writes no file."""
    for name, t in named_params:
        if not np.isfinite(t.data).all():
            raise ValidationError(f"{path}: parameter {name} holds a non-finite value")
    head = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        **header,
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in named_params],
    }
    line = json.dumps(head, allow_nan=False) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        for _, t in named_params:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


_MANIFEST_ENTRY = {"name": STR, "shape": list_of(COUNT)}


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and named parameters; a non-finite value is a ValidationError."""
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
        cols = check_rows(header["params"], _MANIFEST_ENTRY)
        arrays: dict[str, np.ndarray] = {}
        for name, shape in zip(cols["name"], cols["shape"]):
            count = int(np.prod(shape))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise FormatError(f"{path}: truncated parameter blob at {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise ValidationError(f"{path}: parameter {name} holds a non-finite value")
    return header, arrays
