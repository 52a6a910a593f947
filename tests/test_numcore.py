import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prism25d import numcore as nc
from prism25d.errors import FormatError, ValidationError
from prism25d.numcore import Adam, Tensor

from helpers import affine_identity, fd_gradients, max_relative_error


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


# -- affine layer ------------------------------------------------------------------


def test_mlp_identity_layer():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    out = affine_identity(4)(x)
    assert np.allclose(out.data, x.data)


def test_mlp_zero_weights_give_bias():
    layer = nc.Affine(Tensor(np.zeros((2, 3)), requires_grad=True),
                      Tensor(np.array([[5.0], [7.0]]), requires_grad=True))
    out = layer(Tensor(np.ones((3, 4))))
    assert np.array_equal(out.data, [[5.0] * 4, [7.0] * 4])


def test_mlp_double_evaluation():
    rng = np.random.default_rng(2)
    layer = nc.affine_init(3, 5, rng)
    x = rng.normal(size=(3, 7))
    assert layer.w.shape == (5, 3) and layer.b.shape == (5, 1)
    assert np.allclose(layer(Tensor(x)).data, layer.w.data @ x + layer.b.data, atol=1e-12)


def test_mlp_shape_errors():
    layer = nc.affine_init(3, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        layer(Tensor(np.zeros((4, 1))))


# -- backward ---------------------------------------------------------------------


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = nc.tsum(nc.mul(x, x))
    nc.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_constant_loss_leaves_grads_zero():
    x = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([x], lr=1e-3)
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
    mlp = nc.affine_init(8, 8, rng)
    x = np.random.default_rng(10).normal(size=(8, 5))

    def build():
        enc = multihead_attention(Tensor(x), Tensor(x), params, heads=2)
        return nc.tsum(nc.mul(mlp(enc), 0.1))

    _gradcheck(build, params.parameters() + [mlp.w, mlp.b])


def test_backward_gives_constants_no_gradient():
    rng = np.random.default_rng(11)
    w, bias, v = _param(rng, 3, 4), _param(rng, 3, 1), _param(rng, 3, 2)
    consts = [Tensor(rng.normal(size=shape)) for shape in ((4, 5), (3, 5), (3, 3), (2, 3))]

    def build():
        x, scale, extra, mix = consts
        h = nc.mul(nc.add(nc.matmul(w, x), bias), scale)  # (3, 5)
        joined = nc.concat([h, extra, v], axis=1)  # (3, 10)
        return nc.tsum(nc.mul(joined, joined)) + nc.tsum(nc.matmul(mix, nc.concat([v, h], axis=1)))

    _gradcheck(build, [w, bias, v])
    assert all(c.grad is None and not c.requires_grad for c in consts)
    # the leaf gradients are the same bits as when every operand takes a gradient
    got = [p.grad for p in (w, bias, v)]
    for c in consts:
        c.requires_grad = True
    for p in (w, bias, v, *consts):
        p.grad = np.zeros_like(p.data)
    nc.backward(build())
    for p, g in zip((w, bias, v), got):
        assert p.grad.tobytes() == g.tobytes()


def test_head_masks_are_read_only():
    from prism25d.attention import head_masks

    for mask in head_masks(8, 2, 5):
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0


# -- adam -------------------------------------------------------------------------


def _reference_adam(params, grads, t, m, v, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One step of per-tensor Adam with bias correction; returns the new parameter arrays."""
    b1t, b2t = 1.0 - beta1**t, 1.0 - beta2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        out.append(p - lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps))
    return out


def test_adam_flat_buffer_matches_per_tensor_reference():
    rng = np.random.default_rng(12)
    shapes = [(6, 4), (6, 1), (4,), (3, 5), (1, 1)]
    params = [_param(rng, *shape) for shape in shapes]
    ref = [p.data.copy() for p in params]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=0.01)
    for p, want in zip(params, ref):
        assert np.shares_memory(p.data, opt._flat) and p.data.shape == want.shape
    for t in range(1, 6):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        ref = _reference_adam(ref, grads, t, m, v, lr=0.01)
        for p, want in zip(params, ref):
            assert p.data.tobytes() == want.tobytes()


def test_adam_rejects_a_repeated_parameter():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValidationError, match="twice"):
        Adam([x, x], lr=1e-3)



def test_adam_zero_gradient_keeps_params():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    opt.zero_grad()
    before = x.data.copy()
    opt.step()
    assert np.array_equal(x.data, before)


def test_adam_missing_gradient_rejected():
    x = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([x], lr=1e-3)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_save_rejects_non_finite_and_writes_nothing(tmp_path, bad):
    rng = np.random.default_rng(0)
    w = _param(rng, 4, 4)
    w.data[2, 1] = bad
    path = tmp_path / "n.ckpt"
    with pytest.raises(ValidationError, match="parameter w holds a non-finite value"):
        nc.save_checkpoint(path, {}, [("b", _param(rng, 1, 4)), ("w", w)])
    assert not path.exists()


def test_checkpoint_save_refuses_a_non_json_header_and_writes_nothing(tmp_path):
    path = tmp_path / "h.ckpt"
    with pytest.raises(ValueError, match="not JSON compliant"):
        nc.save_checkpoint(path, {"sigma": np.inf}, [("b", _param(np.random.default_rng(0), 1, 4))])
    assert not path.exists()


# -- determinism ----------------------------------------------------------------


def test_seeded_init_deterministic():
    a = nc.affine_init(4, 8, np.random.default_rng(42))
    b = nc.affine_init(4, 8, np.random.default_rng(42))
    for (_, wa), (_, wb) in zip(a.named_parameters("a"), b.named_parameters("b")):
        assert wa.data.tobytes() == wb.data.tobytes()
