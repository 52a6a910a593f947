import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prism25d import numcore as nc
from prism25d.errors import FormatError, ValidationError
from prism25d.numcore import Adam, Tensor

from helpers import fd_gradients, max_relative_error, mlp_identity


def _param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# -- matmul ---------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.arange(9.0).reshape(3, 3))
    out = nc.matmul(Tensor(np.eye(3)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_example():
    out = nc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValidationError):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# -- softmax ---------------------------------------------------------------------


def test_softmax_uniform_row():
    out = nc.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_closed_form():
    out = nc.softmax_rows(Tensor([[0.0, np.log(3.0)]]))
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_singleton():
    assert np.array_equal(nc.softmax_rows(Tensor([[42.0]])).data, [[1.0]])


def test_softmax_rejects_nan():
    with pytest.raises(ValidationError):
        nc.softmax_rows(Tensor([[np.nan, 1.0]]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(3, 6))
    y = nc.softmax_rows(Tensor(x)).data
    assert np.all(np.abs(y.sum(axis=1) - 1.0) <= 1e-12)
    shifted = nc.softmax_rows(Tensor(x + rng.normal() * np.ones((3, 1)))).data
    assert np.allclose(y, shifted, atol=1e-12)


# -- mlp -------------------------------------------------------------------------


def test_mlp_identity_layer():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    out = nc.mlp_forward(mlp_identity(4), x)
    assert np.allclose(out.data, x.data)


def test_mlp_zero_weights_give_bias():
    params = nc.MlpParams(
        [Tensor(np.zeros((2, 3)), requires_grad=True)],
        [Tensor(np.array([[5.0], [7.0]]), requires_grad=True)],
    )
    out = nc.mlp_forward(params, Tensor(np.ones((3, 4))))
    assert np.array_equal(out.data, [[5.0] * 4, [7.0] * 4])


def test_mlp_double_evaluation():
    rng = np.random.default_rng(2)
    params = nc.mlp_init([3, 5, 2], rng)
    x = rng.normal(size=(3, 7))
    got = nc.mlp_forward(params, Tensor(x)).data
    h = np.maximum(params.weights[0].data @ x + params.biases[0].data, 0.0)
    want = params.weights[1].data @ h + params.biases[1].data
    assert np.allclose(got, want, atol=1e-12)


def test_mlp_shape_errors():
    rng = np.random.default_rng(0)
    params = nc.mlp_init([3, 2], rng)
    with pytest.raises(ValidationError):
        nc.mlp_forward(params, Tensor(np.zeros((4, 1))))
    with pytest.raises(ValidationError):
        nc.mlp_init([3], rng)


# -- backward ---------------------------------------------------------------------


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = nc.tsum(nc.mul(x, x))
    nc.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_constant_loss_leaves_grads_zero():
    x = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([x])
    opt.zero_grad()
    nc.backward(Tensor(5.0))
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValidationError):
        nc.backward(nc.mul(x, x))


def test_backward_shared_subexpression():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = nc.mul(x, x)
    loss = nc.tsum(nc.add(y, y))
    nc.backward(loss)
    assert np.allclose(x.grad, [8.0])  # d/dx 2x^2


def _gradcheck(build, params, rtol=1e-4, h=1e-5):
    for p in params:
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    fd = fd_gradients(build, params, h=h)
    for p, f in zip(params, fd):
        assert max_relative_error(p.grad, f) < rtol


def test_gradcheck_elementwise_chain():
    rng = np.random.default_rng(3)
    a, b = _param(rng, 3, 4), _param(rng, 3, 4)

    def build():
        return nc.tsum(nc.mul(nc.exp(nc.mul(a, 0.3)), nc.add(a, nc.neg(b))))

    _gradcheck(build, [a, b])


def test_gradcheck_matmul_softmax_log():
    rng = np.random.default_rng(4)
    a, b = _param(rng, 3, 4), _param(rng, 4, 5)

    def build():
        y = nc.softmax_rows(nc.matmul(a, b))
        return nc.tsum(nc.log(nc.add(y, 0.1)))

    _gradcheck(build, [a, b])


def test_gradcheck_relu_mean_transpose():
    rng = np.random.default_rng(5)
    a = _param(rng, 4, 3)

    def build():
        return nc.tsum(nc.tmean(nc.relu(nc.transpose(a)), axis=1, keepdims=True))

    _gradcheck(build, [a])


def test_gradcheck_concat_rows_gather():
    rng = np.random.default_rng(6)
    a, b = _param(rng, 3, 4), _param(rng, 2, 4)

    def build():
        c = nc.concat([a, b], axis=0)
        top = nc.rows(c, 0, 2)
        picked = nc.gather_rows(c, [0, 0, 3, 4])
        cols = nc.gather_cols(c, [1, 1, 2])
        return nc.tsum(top) + nc.tsum(nc.mul(picked, picked)) + nc.tsum(cols)

    _gradcheck(build, [a, b])


def test_gradcheck_take_reshape_broadcast_bias():
    rng = np.random.default_rng(7)
    w, bias = _param(rng, 2, 3), _param(rng, 2, 1)

    def build():
        y = nc.add(nc.matmul(w, Tensor(rng0)), bias)  # bias broadcasts over columns
        flat = nc.reshape(y, (8,))
        return nc.take(flat, 3) + nc.tsum(flat) * 0.5

    rng0 = np.random.default_rng(8).normal(size=(3, 4))
    _gradcheck(build, [w, bias])


def test_gradcheck_attention_mlp_stack():
    # the full-stack gradient example: attention + MLP against finite differences
    from prism25d.attention import attention_init, multihead_attention

    rng = np.random.default_rng(9)
    params = attention_init(8, rng)
    mlp = nc.mlp_init([8, 8], rng)
    x = np.random.default_rng(10).normal(size=(8, 5))

    def build():
        enc = multihead_attention(Tensor(x), Tensor(x), params, heads=2)
        return nc.tsum(nc.mul(nc.mlp_forward(mlp, enc), 0.1))

    _gradcheck(build, params.parameters() + mlp.parameters())


# -- adam -------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    opt.zero_grad()
    before = x.data.copy()
    opt.step()
    assert np.array_equal(x.data, before)


def test_adam_missing_gradient_rejected():
    x = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([x])
    with pytest.raises(ValidationError):
        opt.step()


def test_adam_single_step_descends():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    opt.zero_grad()
    nc.backward(nc.tsum(nc.mul(x, x)))
    opt.step()
    assert x.data[0] < 1.0


def test_adam_converges_on_quadratic():
    x = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        diff = x - 3.0
        nc.backward(nc.tsum(nc.mul(diff, diff)))
        opt.step()
    assert abs(x.data[0] - 3.0) < 1e-2


def test_adam_lr_zero_is_bitwise_noop():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = x.data.copy()
    opt = Adam([x], lr=0.0)
    for _ in range(3):
        opt.zero_grad()
        nc.backward(nc.tsum(nc.mul(x, x)))
        opt.step()
    assert x.data.tobytes() == before.tobytes()


# -- checkpoint blob ----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    named = [("a.w", _param(rng, 3, 4)), ("b.w", _param(rng, 2,)), ("c", _param(rng, 1, 1))]
    named[0][1].data[0, 0] = 0.1 + 0.2  # not exactly representable in decimal
    path = tmp_path / "m.ckpt"
    nc.save_checkpoint(path, {"seed": 7, "step": 3}, named)
    header, arrays = nc.load_checkpoint(path)
    assert header["seed"] == 7 and header["step"] == 3
    for name, t in named:
        assert arrays[name].tobytes() == t.data.tobytes()
    nc.save_checkpoint(tmp_path / "m2.ckpt", {"seed": 7, "step": 3}, named)
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.ckpt"
    for head in (b'{"format": "other", "version": 1, "params": []}\n', b"\xff\xfe\n", b"[]\n"):
        path.write_bytes(head)
        with pytest.raises(FormatError):
            nc.load_checkpoint(path)


def test_checkpoint_rejects_truncated_blob(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "t.ckpt"
    nc.save_checkpoint(path, {}, [("w", _param(rng, 4, 4))])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        nc.load_checkpoint(path)


# -- determinism ----------------------------------------------------------------


def test_seeded_init_deterministic():
    a = nc.mlp_init([4, 8, 2], np.random.default_rng(42))
    b = nc.mlp_init([4, 8, 2], np.random.default_rng(42))
    for wa, wb in zip(a.parameters(), b.parameters()):
        assert wa.data.tobytes() == wb.data.tobytes()
