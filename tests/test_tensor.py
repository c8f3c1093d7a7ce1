"""Autodiff core: hand oracles, finite differences, and op edge cases."""

import math

import numpy as np
import pytest

import fedhar.tensor as T
from fedhar.errors import ConfigError, ShapeError
from fedhar.tensor import Tensor, backward


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at x (float64)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = f(x)
        flat[i] = old - h
        down = f(x)
        flat[i] = old
        gflat[i] = (up - down) / (2 * h)
    return g


def check_grad(build, shapes, seed, h=1e-6, tol=1e-7):
    """Compare backward() grads of build(*leaves) against finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]  # float64 on purpose
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*leaves)
    backward(loss)
    for i, leaf in enumerate(leaves):
        def f(x, i=i):
            probe = [Tensor(a.copy()) for a in arrays]
            probe[i] = Tensor(x.copy())
            return build(*probe).item()
        want = fd_grad(f, arrays[i].copy(), h=h)
        got = leaf.grad
        assert got is not None
        err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-8)
        assert err < tol, f"leaf {i}: rel err {err}"


# --------------------------------------------------------------- basics

def test_matmul_against_hand_computation():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    c = T.matmul(a, b)
    assert np.array_equal(c.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_inner_dim_mismatch():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        T.matmul(a, b)


def test_add_broadcast_gradient_sums_over_batch():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    backward(T.sum64(T.add(a, b)))
    assert np.array_equal(a.grad, np.ones((3, 2)))
    assert np.array_equal(b.grad, [3.0, 3.0])  # broadcast axis reduced


def test_chain_gradients_accumulate():
    # y = x*x used twice: dy/dx contributions add up
    x = Tensor(np.array(3.0), requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)
    backward(z)
    assert x.grad == pytest.approx(12.0)


def test_backward_twice_doubles_leaf_grads():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = T.sum64(T.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    loss2 = T.sum64(T.mul(x, x))
    backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.mul(x, x))


def test_no_requires_grad_means_no_grad():
    x = Tensor(np.ones(2))
    y = Tensor(np.ones(2), requires_grad=True)
    backward(T.sum64(T.mul(x, y)))
    assert x.grad is None
    assert np.array_equal(y.grad, [1.0, 1.0])


def test_sum64_accumulates_in_float64():
    # one huge term + many small ones: a float32 running sum drops them all
    x = np.ones(1025, dtype=np.float32)
    x[0] = 2.0 ** 24
    total = T.sum64(Tensor(x))
    assert total.data.dtype == np.float64
    assert total.item() == 2.0 ** 24 + 1024.0
    running = np.float32(0.0)
    for v in x:
        running += v
    assert running == 2.0 ** 24  # the naive f32 path really does lose them


def test_operator_sugar_matches_functions():
    a = Tensor(np.array([1.0, -2.0]))
    b = Tensor(np.array([3.0, 5.0]))
    assert np.array_equal((a + b).data, T.add(a, b).data)
    assert np.array_equal((a - b).data, T.sub(a, b).data)
    assert np.array_equal((a * b).data, T.mul(a, b).data)
    assert np.array_equal((-a).data, T.neg(a).data)


# ------------------------------------------------------- known values

def test_layer_norm_two_point_row():
    # row [1, 3]: mean 2, population var 1 -> normalized [-1, 1]
    x = Tensor(np.array([[1.0, 3.0]]))
    gain = Tensor(np.ones(2))
    bias = Tensor(np.zeros(2))
    y = T.layer_norm(x, gain, bias, eps=0.0)
    assert np.allclose(y.data, [[-1.0, 1.0]])


def test_layer_norm_gain_bias_applied():
    x = Tensor(np.array([[1.0, 3.0]]))
    gain = Tensor(np.array([2.0, 2.0]))
    bias = Tensor(np.array([10.0, 10.0]))
    y = T.layer_norm(x, gain, bias, eps=0.0)
    assert np.allclose(y.data, [[8.0, 12.0]])


def test_softmax_rows_known_values():
    # logits [0, ln 2] -> probabilities [1/3, 2/3]
    x = Tensor(np.array([[0.0, np.log(2.0)]]))
    p = T.softmax_rows(x)
    assert np.allclose(p.data, [[1.0 / 3.0, 2.0 / 3.0]])
    assert np.allclose(p.data.sum(axis=-1), 1.0)


def test_tanh_log_clamp_values():
    assert np.allclose(T.tanh(Tensor(np.array([0.0]))).data, [0.0])
    assert np.allclose(T.log(Tensor(np.array([np.e]))).data, [1.0])
    c = T.clamp(Tensor(np.array([-2.0, 0.5, 2.0])), 0.0, 1.0)
    assert np.array_equal(c.data, [0.0, 0.5, 1.0])


def test_gelu_matches_reference_formula():
    x = np.linspace(-3, 3, 13)
    got = T.gelu(Tensor(x)).data
    want = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
    assert np.allclose(got, want, atol=1e-12)


def test_relu_zero_gradient_in_negative_half():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    backward(T.sum64(T.relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_clamp_gradient_zero_outside_range():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    backward(T.sum64(T.clamp(x, 0.0, 1.0)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


# ------------------------------------------------- finite differences

def test_grad_matmul_chain():
    check_grad(lambda a, b: T.sum64(T.matmul(a, b)), [(3, 4), (4, 2)], seed=0)


def test_grad_batched_matmul():
    check_grad(lambda a, b: T.sum64(T.matmul(a, b)), [(2, 3, 4), (4, 5)], seed=1)


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_grad_linear(x_shape):
    def build(x, w, b):
        y = T.linear(x, w, b)
        return T.sum64(T.mul(y, y))
    check_grad(build, [x_shape, (4, 5), (5,)], seed=len(x_shape))


def test_grad_mul_add_neg():
    check_grad(lambda a, b: T.sum64(T.mul(T.add(a, T.neg(b)), a)),
               [(5,), (5,)], seed=2)


def test_grad_tanh():
    check_grad(lambda x: T.sum64(T.tanh(x)), [(7,)], seed=3)


def test_grad_gelu():
    check_grad(lambda x: T.sum64(T.gelu(x)), [(9,)], seed=4)


def test_grad_log():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 2.0, 6)
    x = Tensor(a.copy(), requires_grad=True)
    backward(T.sum64(T.log(x)))
    assert np.allclose(x.grad, 1.0 / a, atol=1e-12)


def test_grad_softmax_rows():
    check_grad(lambda x: T.sum64(T.mul(T.softmax_rows(x), x)), [(2, 5)], seed=6)


def test_grad_layer_norm():
    check_grad(lambda x, g, b: T.sum64(T.mul(T.layer_norm(x, g, b), x)),
               [(3, 6), (6,), (6,)], seed=7, tol=1e-6)


def test_grad_reshape_transpose_narrow():
    def build(x):
        y = T.reshape(x, (2, 6))
        y = T.transpose(y, (1, 0))
        y = T.narrow_last(T.transpose(y, (1, 0)), 1, 4)
        return T.sum64(T.mul(y, y))
    check_grad(build, [(3, 4)], seed=8)


def test_grad_attention_full_stack():
    H, nh = 4, 2
    def build(x, qkv_w, qkv_b, out_w, out_b):
        y = T.causal_self_attention(x, qkv_w, qkv_b, out_w, out_b, n_heads=nh)
        return T.sum64(T.mul(y, y))
    check_grad(build, [(2, 3, H), (H, 3 * H), (3 * H,), (H, H), (H,)],
               seed=9, tol=1e-5)


# ------------------------------------------------------------- linear

def test_linear_matches_matmul_plus_add():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((3, 5, 16)).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal(8).astype(np.float32))
    got = T.linear(x, w, b).data
    want = T.add(T.matmul(x, w), b).data
    assert got.shape == want.shape == (3, 5, 8)
    assert got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_linear_input_without_requires_grad_gets_no_gradient():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    backward(T.sum64(T.linear(x, w, b)))
    assert x.grad is None
    assert np.allclose(w.grad, x.data.reshape(-1, 4).sum(axis=0)[:, None] * np.ones(2))
    assert np.array_equal(b.grad, [6.0, 6.0])


def test_linear_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="2-D"):
        T.linear(x, Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(5, 2\)"):
        T.linear(x, Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
    with pytest.raises(ShapeError, match="bias"):
        T.linear(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="bias"):
        T.linear(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 2))))


# ----------------------------------- in-place ops vs their expressions

def _probe_inputs(dtype, shape):
    rng = np.random.default_rng(16)
    x = (rng.standard_normal(shape) * 4).astype(dtype)
    x.reshape(-1)[:6] = [0.0, -0.0, 1e-20, -1e-20, 30.0, -30.0]
    g = rng.standard_normal(shape).astype(dtype)
    return x, g


def _grad_of(op, x, g):
    """d/dx sum(g * op(x)), which is op's VJP applied to g."""
    leaf = Tensor(x.copy(), requires_grad=True)
    y = op(leaf)
    backward(T.sum64(T.mul_const(y, g)))
    return y.data, leaf.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bitwise_equals_reference_expression(dtype):
    xd, g = _probe_inputs(dtype, (4, 6, 33))
    # the one-line forms gelu had before it was rewritten with in-place ufuncs
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (xd + 0.044715 * xd * xd * xd))
    want = 0.5 * xd * (1.0 + t)
    dinner = c * (1.0 + 3.0 * 0.044715 * xd * xd)
    want_dx = g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner)
    got, got_dx = _grad_of(T.gelu, xd, g)
    assert got.dtype == got_dx.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert got_dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_rows_bitwise_equals_reference_expression(dtype):
    xd, g = _probe_inputs(dtype, (4, 2, 6, 6))
    mask = np.tril(np.ones((6, 6), dtype=bool))
    xd = xd + np.where(mask, 0.0, -1e9).astype(dtype)
    # the one-line forms softmax_rows had before it was rewritten in place
    e = np.exp(xd - xd.max(axis=-1, keepdims=True))
    want = (e / e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(dtype, copy=False)
    want_dx = want * (g - (g * want).sum(axis=-1, keepdims=True))
    got, got_dx = _grad_of(T.softmax_rows, xd, g)
    assert got.dtype == got_dx.dtype == dtype
    assert np.all(got[..., ~mask] == 0.0)
    assert got.tobytes() == want.tobytes()
    assert got_dx.tobytes() == want_dx.tobytes()


# ---------------------------------------------------------- attention

def test_attention_is_causal():
    """Changing a later timestep never changes an earlier output."""
    rng = np.random.default_rng(10)
    H = 4
    x = rng.standard_normal((1, 5, H))
    ws = [Tensor(rng.standard_normal(s) * 0.3)
          for s in [(H, 3 * H), (3 * H,), (H, H), (H,)]]
    base = T.causal_self_attention(Tensor(x), *ws, n_heads=2).data
    bumped = x.copy()
    bumped[0, 3] += 10.0
    out = T.causal_self_attention(Tensor(bumped), *ws, n_heads=2).data
    assert np.allclose(out[0, :3], base[0, :3])
    assert not np.allclose(out[0, 3:], base[0, 3:])


def test_attention_ignores_padded_keys():
    rng = np.random.default_rng(11)
    H = 4
    x = rng.standard_normal((1, 4, H))
    ws = [Tensor(rng.standard_normal(s) * 0.3)
          for s in [(H, 3 * H), (3 * H,), (H, H), (H,)]]
    pad = np.array([[1, 1, 0, 0]], dtype=np.float32)
    base = T.causal_self_attention(Tensor(x), *ws, n_heads=2, pad_mask=pad).data
    noisy = x.copy()
    noisy[0, 2:] = 99.0  # padded region; keys contribute nothing
    out = T.causal_self_attention(Tensor(noisy), *ws, n_heads=2, pad_mask=pad).data
    assert np.allclose(out[0, :2], base[0, :2])


def test_attention_single_head_matches_manual_softmax():
    rng = np.random.default_rng(12)
    H, S = 3, 4
    x = rng.standard_normal((1, S, H))
    qkv_w = rng.standard_normal((H, 3 * H))
    out_w = np.eye(H)
    got = T.causal_self_attention(
        Tensor(x), Tensor(qkv_w), Tensor(np.zeros(3 * H)),
        Tensor(out_w), Tensor(np.zeros(H)), n_heads=1).data[0]

    qkv = x[0] @ qkv_w
    q, k, v = qkv[:, :H], qkv[:, H:2 * H], qkv[:, 2 * H:]
    scores = q @ k.T / np.sqrt(H)
    scores = np.where(np.tril(np.ones((S, S), dtype=bool)), scores, -1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(got, att @ v, atol=1e-10)


def test_attention_rejects_bad_heads_and_length():
    x = Tensor(np.zeros((1, 2, 4)))
    ws = [Tensor(np.zeros(s)) for s in [(4, 12), (12,), (4, 4), (4,)]]
    with pytest.raises(ConfigError):
        T.causal_self_attention(x, *ws, n_heads=3)
    with pytest.raises(ShapeError):
        T.causal_self_attention(x, *ws, n_heads=2, n_positions=1)


# ------------------------------------------------------------ dropout

def test_dropout_scales_survivors():
    rng = np.random.default_rng(13)
    x = Tensor(np.ones(10000))
    y = T.dropout(x, 0.25, rng).data
    kept = y > 0
    assert np.allclose(y[kept], 1.0 / 0.75)
    assert 0.70 < kept.mean() < 0.80


def test_dropout_zero_rate_is_identity():
    x = Tensor(np.ones(5))
    assert T.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_deterministic_under_seed():
    x = Tensor(np.ones(64))
    a = T.dropout(x, 0.5, np.random.default_rng(42)).data
    b = T.dropout(x, 0.5, np.random.default_rng(42)).data
    assert np.array_equal(a, b)


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(100), requires_grad=True)
    y = T.dropout(x, 0.5, np.random.default_rng(7))
    backward(T.sum64(y))
    assert np.array_equal(x.grad, (y.data > 0) * 2.0)


# --------------------------------------------------------------- adam

def test_adam_first_step_size_is_lr():
    # bias correction makes |update| ~= lr regardless of grad scale
    for scale in (1e-4, 1.0, 1e4):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        state = T.AdamState.for_param(p)
        T.adam_step(p, np.full(3, scale, dtype=np.float32), state, lr=0.1)
        assert np.allclose(p.data, -0.1, rtol=1e-3)


def test_adam_two_steps_match_reference_recurrence():
    g1 = np.array([0.5, -1.0])
    g2 = np.array([-0.25, 2.0])
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    state = T.AdamState.for_param(p)
    T.adam_step(p, g1, state, lr=0.01)
    T.adam_step(p, g2, state, lr=0.01)

    m = v = np.zeros(2)
    x = np.array([1.0, 1.0])
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p.data, x, atol=1e-12)


def test_adam_rejects_bad_lr_and_shape():
    p = Tensor(np.zeros(2), requires_grad=True)
    state = T.AdamState.for_param(p)
    with pytest.raises(ConfigError):
        T.adam_step(p, np.zeros(2), state, lr=0.0)
    with pytest.raises(ShapeError):
        T.adam_step(p, np.zeros(3), state, lr=0.1)


def test_adam_named_family_none_grad_still_steps_moments():
    params = {"a": Tensor(np.ones(2, dtype=np.float32), requires_grad=True)}
    opt = T.Adam()
    opt.step(params, lr=0.1)  # no grad yet -> treated as zeros
    assert np.allclose(params["a"].data, 1.0)
    assert opt.states["a"].t == 1
