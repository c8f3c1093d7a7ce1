"""Autodiff core: hand oracles, finite differences, and op edge cases."""

import math
import tracemalloc

import numpy as np
import pytest

import fedhar.tensor as T
from fedhar.errors import ConfigError, FedharError, ShapeError
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


def probe(x, weight=None):
    """sum(x), or sum(weight * x) for a constant ``weight`` of x's shape, as
    a float64 scalar with a gradient: the scalar these tests backpropagate
    from. Built on ``T._result`` like the library's ops; its VJP puts the
    upstream gradient (times ``weight``) at every element of x."""
    xd = x.data
    w = None if weight is None else np.asarray(weight, dtype=xd.dtype)

    def vjp(g):
        full = np.full(xd.shape, float(g), dtype=xd.dtype)
        return (full if w is None else full * w,)

    return T._result(np.asarray((xd if w is None else xd * w).sum(dtype=np.float64)), (x,), vjp)


# --------------------------------------------------------------- basics

@pytest.mark.parametrize("shape_a, shape_b", [
    pytest.param((3, 2), (2,), id="leading-axis"),
    # a size-1 axis kept in place (keepdims) is summed in place
    pytest.param((2, 4, 3), (2, 1, 3), id="size-1-axis"),
])
def test_add_broadcast_gradient_sums_over_batch(shape_a, shape_b):
    a = Tensor(np.ones(shape_a), requires_grad=True)
    b = Tensor(np.zeros(shape_b), requires_grad=True)
    backward(probe(T.add(a, b)))
    assert np.array_equal(a.grad, np.ones(shape_a))
    # each element of b fed as many outputs as the broadcast repeated it
    assert np.array_equal(b.grad, np.full(shape_b, a.grad.size / b.grad.size))
    weight = np.random.default_rng(0).standard_normal(np.broadcast_shapes(shape_a, shape_b))
    check_grad(lambda x, y: probe(T.add(x, y), weight), [shape_a, shape_b], seed=1)


def test_chain_gradients_accumulate():
    # y = x*x used twice: dy/dx contributions add up
    x = Tensor(np.array(3.0), requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)
    backward(z)
    assert x.grad == pytest.approx(12.0)


def test_backward_twice_doubles_leaf_grads():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = probe(T.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    loss2 = probe(T.mul(x, x))
    backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_backward_through_a_released_graph_raises():
    # backward frees the graph as it consumes it: a second pass through it
    # is refused, not run as a pass that adds nothing
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    hidden = T.tanh(T.linear(x, w, b))
    loss = probe(hidden)
    backward(loss)
    first = [t.grad.copy() for t in (x, w, b)]
    with pytest.raises(FedharError, match="backward has already run"):
        backward(loss)
    for t, g in zip((x, w, b), first):
        assert np.array_equal(t.grad, g)
    # a new loss over a consumed activation reaches the released part too
    with pytest.raises(FedharError, match="backward has already run"):
        backward(probe(hidden, rng.standard_normal(hidden.shape)))


def test_op_on_no_grad_inputs_builds_no_node():
    a = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 2)))
    for out in (T.add(a, a), T.linear(a, w, Tensor(np.zeros(2))),
                T.dropout(a, 0.5, np.random.default_rng(0)),
                T.weighted_bce(T.tanh(a), a.data, a.data, 1.0, 1e-7)):
        assert not out.requires_grad
        assert out._node is None
    backward(T.weighted_bce(a, a.data, a.data, 1.0, 1e-7))  # nothing to push into
    assert a.grad is None


def _graph_nodes(root):
    """Every ``_Node`` below ``root``, each once."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, Tensor):
            continue
        seen.add(id(node))
        yield node
        stack.extend(p for p in node.parents if p is not None)


def _closed_over(fn, seen=None):
    """What a closure holds, through the closures it holds in turn (a
    ``linear`` keeps the ``rebuild`` recipe of a layer norm's node)."""
    seen = set() if seen is None else seen
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if callable(value) and getattr(value, "__closure__", None) and id(value) not in seen:
            seen.add(id(value))
            yield from _closed_over(value, seen)
        else:
            yield value


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``a`` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_graph_nodes_hold_arrays_not_tensors():
    """Every VJP closes over arrays and shapes only (directly or through a
    ``rebuild`` recipe it keeps), and every parent entry is a node or a
    grad-requiring leaf, so a node never keeps an op output alive and the
    graph has no Tensor-node cycle."""
    from fedhar.model import ModelConfig, forward, init_model, masked_weighted_loss
    cfg = ModelConfig(n_features=3, n_labels=2, transformers_layers=2,
                      hidden_size=8, n_positions=6, dropout=0.1, seed=0)
    weights = init_model(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 6, 3)).astype(np.float32)
    pad = np.ones((2, 6), dtype=np.float32)
    pad[1, 4:] = 0
    y = forward(weights, x, pad, train_mode=True, rng=rng)
    targets = (rng.random((2, 6, 2)) > 0.5).astype(np.float32)
    loss = masked_weighted_loss(y, targets, np.ones_like(targets), np.ones(2))
    leaves = {id(t) for t in weights.tensors.values()}
    seen, stack, nodes = set(), [loss._node], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Tensor):
            assert id(node) in leaves and node._node is None
            continue
        nodes += 1
        for value in _closed_over(node.vjp):
            assert not isinstance(value, Tensor), node.vjp.__qualname__
        stack.extend(p for p in node.parents if p is not None)
    assert nodes == 29  # 10 per block, 8 around the blocks, 1 in the loss
    assert leaves <= seen  # every weight is reached


def test_attention_and_gelu_nodes_keep_no_derived_activations():
    """Above ``_KEEP_PROBS`` scores attention keeps row statistics, not its
    [B, nh, T, T] probabilities (only the bool dropout mask is that size);
    at or below it, it keeps the float probabilities too. The MLP's
    ``gelu_linear`` keeps only x and its weight. Both VJPs recompute the
    rest."""
    from fedhar.model import ModelConfig, forward, init_model
    cfg = ModelConfig(n_features=3, n_labels=2, transformers_layers=2,
                      hidden_size=8, n_positions=64, n_heads=2, dropout=0.1, seed=0)
    nh, S, H = cfg.n_heads, cfg.n_positions, cfg.hidden_size
    at_limit = T._KEEP_PROBS // (nh * S * S)
    for B, want in [(at_limit + 1, ["bool"]), (at_limit, ["bool", "float32"])]:
        rng = np.random.default_rng(0)
        x = rng.standard_normal((B, S, 3)).astype(np.float32)
        pad = np.ones((B, S), dtype=np.float32)
        pad[1, 4:] = 0
        weights = init_model(cfg)
        y = forward(weights, x, pad, train_mode=True, rng=rng)
        kinds = {"attention": 0, "gelu_linear": 0}
        for node in _graph_nodes(y._node):
            name = node.vjp.__qualname__
            arrays = [v for v in _closed_over(node.vjp) if isinstance(v, np.ndarray)]
            if name.startswith("causal_self_attention."):
                kinds["attention"] += 1
                big = [a for a in arrays if a.shape == (B, nh, S, S)]
                assert sorted(a.dtype.name for a in big) == want, (B, name)
            elif name.startswith("gelu_linear."):
                kinds["gelu_linear"] += 1
                x_kept, w_kept = sorted(arrays, key=lambda a: a.ndim, reverse=True)
                assert x_kept.shape == (B, S, 4 * H)
                assert any(w_kept is weights[f"block{i}.mlp.proj.w"].data
                           for i in range(cfg.transformers_layers))
            assert not name.startswith("gelu."), name
        assert kinds == {"attention": 2, "gelu_linear": 2}


def _random_weights(cfg, seed):
    """``init_model(cfg)`` with every array redrawn, so that no layer norm
    is the identity affine and its output differs from the xhat it keeps."""
    from fedhar.model import init_model
    rng = np.random.default_rng(seed)
    weights = init_model(cfg)
    for t in weights.tensors.values():
        t.data = (rng.standard_normal(t.data.shape) * 0.5).astype(np.float32)
    return weights


def _graph_float_bytes(cfg, B, monkeypatch=None):
    """(float bytes the graph of a training forward keeps, apart from the
    weights, and the GELU and layer-norm outputs that forward made)."""
    from fedhar.model import forward
    outputs = []
    if monkeypatch is not None:
        for name in ("gelu", "layer_norm"):
            def recording(*args, _op=getattr(T, name), **kwargs):
                out = _op(*args, **kwargs)
                outputs.append(out.data)
                return out
            monkeypatch.setattr(T, name, recording)
    weights = _random_weights(cfg, seed=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((B, cfg.n_positions, cfg.n_features)).astype(np.float32)
    pad = np.ones((B, cfg.n_positions), dtype=np.float32)
    pad[1, 4:] = 0
    y = forward(weights, x, pad, train_mode=True, rng=rng)
    params = {id(t.data) for t in weights.tensors.values()}
    roots, held = {}, []
    for node in _graph_nodes(y._node):
        for value in _closed_over(node.vjp):
            if isinstance(value, np.ndarray):
                held.append(value)
                root = _root(value)
                if root.dtype.kind == "f" and id(root) not in params:
                    roots[id(root)] = root
    for a in held:
        for out in outputs:
            assert not np.shares_memory(a, out)
            assert a.size != out.size or a.tobytes() != out.tobytes()
    return sum(r.nbytes for r in roots.values()), outputs


def test_graph_keeps_no_gelu_or_layer_norm_output(monkeypatch):
    """No node holds a GELU or layer-norm output, or a copy of one, and a
    block keeps exactly these float arrays: layer norm's xhat and inverse
    deviation (twice), attention's qkv, causal/pad bias, row max (float32),
    row sum (float64) and probabilities (kept whole at this size), the
    attention context for the output projection, and the MLP's hidden
    pre-activation for ``gelu_linear``. The two-op form also kept the GELU
    output (4 B T H floats) and each layer-norm output read by a ``linear``
    (B T H floats, twice)."""
    from fedhar.model import ModelConfig
    B, S, H, nh = 2, 6, 8, 2

    def config(layers):
        return ModelConfig(n_features=3, n_labels=2, transformers_layers=layers,
                           hidden_size=H, n_positions=S, n_heads=nh, dropout=0.1, seed=0)
    one, _ = _graph_float_bytes(config(1), B)
    two, outputs = _graph_float_bytes(config(2), B, monkeypatch)
    assert len(outputs) == 2 * 3 + 1  # two layer norms and a GELU per block, ln_f
    f32 = 4 * (B * S * H * (1 + 3 + 1 + 1 + 4)  # xhat, qkv, context, xhat, MLP pre-activation
               + 2 * B * S                      # two inverse deviations
               + B * S * S                      # the bias, one [S, S] per batch entry
               + B * nh * S                     # row max
               + B * nh * S * S)                # probabilities
    assert two - one == f32 + 8 * B * nh * S    # and the float64 row sums


def test_backward_frees_the_graph_as_it_consumes_it():
    """After ``backward`` no node of a model's graph closes over an array,
    and live memory ends the pass below where it started by most of the
    bytes the graph kept, although the pass made the weights' gradients."""
    from fedhar.model import ModelConfig, forward, masked_weighted_loss
    cfg = ModelConfig(n_features=3, n_labels=2, transformers_layers=2,
                      hidden_size=16, n_positions=32, n_heads=2, dropout=0.1, seed=0)
    weights = _random_weights(cfg, seed=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 32, 3)).astype(np.float32)
    pad = np.ones((8, 32), dtype=np.float32)
    pad[1, 20:] = 0
    targets = (rng.random((8, 32, 2)) > 0.5).astype(np.float32)
    tracemalloc.start()
    try:
        y = forward(weights, x, pad, train_mode=True, rng=rng)
        loss = masked_weighted_loss(y, targets, np.ones_like(targets), np.ones(2))
        nodes = list(_graph_nodes(loss._node))
        # what only the graph holds: not the weights, the input or the output
        outside = {id(_root(a)) for a in (x, pad, y.data, loss.data)}
        outside |= {id(t.data) for t in weights.tensors.values()}
        roots = {}
        for node in nodes:
            for value in _closed_over(node.vjp):
                if isinstance(value, np.ndarray) and id(_root(value)) not in outside:
                    roots[id(_root(value))] = _root(value)
        kept = sum(r.nbytes for r in roots.values())
        del roots, value
        start = tracemalloc.get_traced_memory()[0]
        backward(loss)
        freed = start - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for node in nodes:
        for fn in (node.vjp, node.rebuild):
            assert fn is None or not any(isinstance(v, np.ndarray) for v in _closed_over(fn))
    grads = sum(t.grad.nbytes for t in weights.tensors.values())
    assert grads < kept // 10, (grads, kept)  # so the gradients cannot hide a kept graph
    assert freed > 0.8 * kept, (freed, kept, grads)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(T.mul(x, x))


def test_no_requires_grad_means_no_grad():
    x = Tensor(np.ones(2))
    y = Tensor(np.ones(2), requires_grad=True)
    backward(probe(T.mul(x, y)))
    assert x.grad is None
    assert np.array_equal(y.grad, [1.0, 1.0])


def test_loss_accumulates_in_float64():
    # one huge term + many small ones: a float32 running sum drops them all.
    # At y = 0 every cell's term is coef * log(0.5), with log(0.5) in float32;
    # every partial sum of these is exact in float64.
    y = np.zeros(1025, dtype=np.float32)
    coef = np.ones(1025, dtype=np.float32)
    coef[0] = 2.0 ** 25
    loss = T.weighted_bce(Tensor(y), coef, np.zeros_like(coef), 1.0, 1e-7)
    log_half = np.log(np.float32(0.5))
    assert loss.data.dtype == np.float64
    assert loss.item() == -(2.0 ** 25 + 1024.0) * float(log_half)
    running = np.float32(0.0)
    for c in coef:
        running += c * log_half
    assert running == 2.0 ** 25 * log_half  # the naive f32 path really does lose them


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


def test_tanh_log_clamp_values():
    assert np.allclose(T.tanh(Tensor(np.array([0.0]))).data, [0.0])

    def loss(y, coef_pos, coef_neg, denom=1.0):
        return T.weighted_bce(Tensor(np.array(y)), np.array(coef_pos),
                              np.array(coef_neg), denom, 1e-7).item()
    # p = 1/2 on either side: ln 2 per unit of weight
    assert loss([0.0], [1.0], [0.0]) == pytest.approx(math.log(2.0), rel=1e-15)
    assert loss([0.0, 0.0], [3.0, 0.0], [0.0, 1.0], 4.0) == pytest.approx(math.log(2.0),
                                                                        rel=1e-15)
    # p = 0.9 and 1 - p = 0.8, the logs of the clipped p and 1 - p
    assert loss([0.8, -0.6], [2.0, 0.0], [0.0, 1.0], 3.0) == pytest.approx(
        (2.0 * -math.log(0.9) - math.log(0.8)) / 3.0, rel=1e-14)
    # saturated outputs clip to p_clamp and 1 - p_clamp instead of log(0)
    assert loss([-1.0, 1.0, -2.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0], 3.0) == pytest.approx(
        -math.log(1e-7), rel=1e-9)


def test_gelu_matches_reference_formula():
    x = np.linspace(-3, 3, 13)
    got = T.gelu(Tensor(x)).data
    want = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
    assert np.allclose(got, want, atol=1e-12)


def test_relu_zero_gradient_in_negative_half():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    backward(probe(T.relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_clamp_gradient_zero_outside_range():
    """Saturated cells, where the loss clips p, get exactly zero gradient;
    the others get d/dy of -(log p) / denom = -1 / (2 p denom)."""
    y = Tensor(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), requires_grad=True)
    backward(T.weighted_bce(y, np.ones(5), np.zeros(5), 1.0, 0.1))
    assert np.array_equal(y.grad, [0.0, 0.0, -1.0, 0.0, 0.0])


# ------------------------------------------------- finite differences

@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_grad_linear(x_shape):
    def build(x, w, b):
        y = T.linear(x, w, b)
        return probe(T.mul(y, y))
    check_grad(build, [x_shape, (4, 5), (5,)], seed=len(x_shape))


def test_grad_mul_add_neg():
    check_grad(lambda a, b: probe(T.mul(T.sub(a, b), a)),
               [(5,), (5,)], seed=2)


def test_grad_tanh():
    check_grad(lambda x: probe(T.tanh(x)), [(7,)], seed=3)


def test_grad_gelu():
    check_grad(lambda x: probe(T.gelu(x)), [(9,)], seed=4)


def test_grad_gelu_linear():
    def build(x, w, b):
        y = T.gelu_linear(x, w, b)
        return probe(T.mul(y, y))
    check_grad(build, [(2, 3, 4), (4, 5), (5,)], seed=23)


def test_grad_weighted_bce():
    """The loss node through tanh, against finite differences in float64."""
    rng = np.random.default_rng(5)
    coef_pos = rng.uniform(0.0, 3.0, (2, 3, 4)) * (rng.random((2, 3, 4)) < 0.5)
    coef_neg = (coef_pos == 0) * rng.uniform(0.0, 1.0, (2, 3, 4))
    check_grad(lambda z: T.weighted_bce(T.tanh(z), coef_pos, coef_neg, 7.5, 1e-7),
               [(2, 3, 4)], seed=5)


def test_grad_layer_norm():
    check_grad(lambda x, g, b: probe(T.mul(T.layer_norm(x, g, b), x)),
               [(3, 6), (6,), (6,)], seed=7, tol=1e-6)


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
def test_grad_attention_full_stack(padded, dropout_p):
    H, nh = 4, 2
    pad = np.ones((2, 4))
    if padded:
        pad[1, 2:] = 0
    def build(x, qkv_w, qkv_b, out_w, out_b):
        # a fresh generator per call, so every probe sees the same mask
        y = T.causal_self_attention(x, qkv_w, qkv_b, out_w, out_b, n_heads=nh,
                                    pad_mask=pad, dropout_p=dropout_p,
                                    rng=np.random.default_rng(9))
        return probe(T.mul(y, y))
    check_grad(build, [(2, 4, H), (H, 3 * H), (3 * H,), (H, H), (H,)],
               seed=9, tol=1e-5)


# ------------------------------------------------------------- linear

def test_linear_matches_matmul_plus_add():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((3, 5, 16)).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
    b = Tensor(rng.standard_normal(8).astype(np.float32))
    got = T.linear(x, w, b).data
    want = x.data @ w.data + b.data
    assert got.shape == want.shape == (3, 5, 8)
    assert got.dtype == np.float32
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_linear_input_without_requires_grad_gets_no_gradient():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    backward(probe(T.linear(x, w, b)))
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
    backward(probe(y, g))
    return y.data, leaf.grad


def _dtypes_by_blocks(*one_block, three_blocks):
    """float32 and float64 cases of one shape that fits one block (ids
    "float32", "float64") and of one that spans three ("...-three-blocks")."""
    return [pytest.param(dtype, *case, id=dtype.__name__ + suffix)
            for case, suffix in ((one_block, ""), (three_blocks, "-three-blocks"))
            for dtype in (np.float32, np.float64)]


# 3 * 97 * 257 elements fill two elementwise blocks and part of a third
ELEMENTWISE_CASES = _dtypes_by_blocks((4, 6, 33), three_blocks=((3, 97, 257),))


@pytest.mark.parametrize("dtype, shape", ELEMENTWISE_CASES)
def test_gelu_bitwise_equals_reference_expression(dtype, shape):
    assert np.prod(shape) < T._BLOCK or np.prod(shape) > 2 * T._BLOCK
    xd, g = _probe_inputs(dtype, shape)
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


@pytest.mark.parametrize("dtype, shape", ELEMENTWISE_CASES)
def test_gelu_linear_bitwise_equals_linear_of_gelu(dtype, shape):
    xd, g = _probe_inputs(dtype, shape)
    rng = np.random.default_rng(20)
    wd = rng.standard_normal((shape[-1], 5)).astype(dtype)
    bd = rng.standard_normal(5).astype(dtype)
    gy = rng.standard_normal(shape[:-1] + (5,)).astype(dtype)
    got, want = [], []
    for op, into in ((T.gelu_linear, got), (lambda x, w, b: T.linear(T.gelu(x), w, b), want)):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd)]
        y = op(*leaves)
        backward(probe(y, gy))
        into += [y.data] + [leaf.grad for leaf in leaves]
    for name, a, b in zip(["y", "dx", "dW", "db"], got, want):
        assert a.dtype == b.dtype == dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_gelu_linear_input_without_requires_grad_gets_no_gradient():
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    backward(probe(T.gelu_linear(x, w, b)))
    assert x.grad is None
    want = T.gelu(Tensor(x.data)).data.reshape(-1, 4).T @ np.ones((6, 2))
    assert w.grad.tobytes() == want.tobytes()
    with pytest.raises(ShapeError, match="gelu_linear: bias"):
        T.gelu_linear(x, w, Tensor(np.zeros(3)))


@pytest.mark.parametrize("dtype, shape", ELEMENTWISE_CASES)
def test_linear_over_layer_norm_rebuilds_its_input_bitwise(dtype, shape):
    """A ``linear`` that reads a layer norm's output keeps the norm's recipe,
    not the output: its dW equals that of a ``linear`` over a detached copy
    of the output. The recipe holds the arrays it read, so rebinding the
    gain's ``data`` before the backward pass, as Adam does, changes nothing."""
    xd, _ = _probe_inputs(dtype, shape)
    rng = np.random.default_rng(22)
    width = shape[-1]
    gain, bias = (Tensor(rng.standard_normal(width).astype(dtype), requires_grad=True)
                  for _ in range(2))
    wd = rng.standard_normal((width, 5)).astype(dtype)
    bd = rng.standard_normal(5).astype(dtype)
    gy = rng.standard_normal(shape[:-1] + (5,)).astype(dtype)
    normed = T.layer_norm(Tensor(xd, requires_grad=True), gain, bias)
    detached = Tensor(normed.data.copy())
    w, b = Tensor(wd.copy(), requires_grad=True), Tensor(bd.copy(), requires_grad=True)
    y = T.linear(normed, w, b)
    assert not any(isinstance(v, np.ndarray) and np.shares_memory(v, normed.data)
                   for v in _closed_over(y._node.vjp))
    del normed
    gain.data = gain.data + 1.0
    backward(probe(y, gy))
    w2, b2 = Tensor(wd.copy(), requires_grad=True), Tensor(bd.copy(), requires_grad=True)
    y2 = T.linear(detached, w2, b2)
    backward(probe(y2, gy))
    assert y.data.tobytes() == y2.data.tobytes()
    assert w.grad.dtype == dtype and w.grad.tobytes() == w2.grad.tobytes()
    assert b.grad.tobytes() == b2.grad.tobytes()


@pytest.mark.parametrize("dtype, shape", ELEMENTWISE_CASES)
def test_dropout_bitwise_equals_scaled_float_mask(dtype, shape):
    xd, g = _probe_inputs(dtype, shape)
    keep = 0.9
    kept = np.random.default_rng(5).random(xd.shape) < keep
    # the scaled float mask dropout kept before it stored a bool one
    mask = kept.astype(dtype) * (1.0 / keep)
    got, got_dx = _grad_of(lambda t: T.dropout(t, 0.1, np.random.default_rng(5)), xd, g)
    assert got.dtype == got_dx.dtype == dtype
    assert got.tobytes() == (xd * mask).tobytes()
    assert got_dx.tobytes() == (g * mask).tobytes()


# ---------------------------------------------------------- attention

def _attention_reference(x, qkv_w, qkv_b, out_w, out_b, nh, pad, p, seed, gy):
    """Attention and its VJP as the chain of generic ops it used to be built
    from: linear, narrow/reshape/transpose per q, k and v, score matmul,
    scale, causal/pad bias, softmax, dropout, context matmul, head merge,
    linear. Returns the output and the gradients of x, qkv_w, qkv_b, out_w
    and out_b for the upstream gradient ``gy``."""
    B, S, H = x.shape
    hd, dtype = H // nh, x.dtype
    x2 = x.reshape(-1, H)
    qkv = (x2 @ qkv_w + qkv_b).reshape(B, S, 3 * H)
    q, k, v = [qkv[..., i * H:(i + 1) * H].reshape(B, S, nh, hd).transpose(0, 2, 1, 3)
               for i in range(3)]
    s = 1.0 / math.sqrt(hd)
    scores = q @ k.transpose(0, 1, 3, 2) * s
    allowed = np.tril(np.ones((S, S), dtype=bool))[None, None] & pad.astype(bool)[:, None, None, :]
    biased = scores + np.where(allowed, 0.0, -1e9).astype(dtype)
    e = np.exp(biased - biased.max(axis=-1, keepdims=True))
    att = (e / e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(dtype, copy=False)
    mask = (np.random.default_rng(seed).random(att.shape) < 1.0 - p).astype(dtype) * (1.0 / (1.0 - p))
    dropped = att * mask
    ctx = (dropped @ v).transpose(0, 2, 1, 3).reshape(B, S, H)
    y = (ctx.reshape(-1, H) @ out_w + out_b).reshape(B, S, H)

    g2 = gy.reshape(-1, H)
    gctx = (g2 @ out_w.T).reshape(B, S, nh, hd).transpose(0, 2, 1, 3)
    gv = dropped.swapaxes(-1, -2) @ gctx
    gatt = (gctx @ v.swapaxes(-1, -2)) * mask
    gscores = att * (gatt - (gatt * att).sum(axis=-1, keepdims=True)) * s
    gq = gscores @ k
    gk = (q.swapaxes(-1, -2) @ gscores).transpose(0, 1, 3, 2)
    gqkv = 0
    for i, gi in enumerate((gq, gk, gv)):
        full = np.zeros((B, S, 3 * H), dtype=dtype)
        full[..., i * H:(i + 1) * H] = gi.transpose(0, 2, 1, 3).reshape(B, S, H)
        gqkv = gqkv + full
    gqkv2 = gqkv.reshape(-1, 3 * H)
    return (y, (gqkv2 @ qkv_w.T).reshape(x.shape), x2.T @ gqkv2, gqkv.sum(axis=0).sum(axis=0),
            ctx.reshape(-1, H).T @ g2, gy.sum(axis=0).sum(axis=0))


# with S=40 and nh=2 a block holds 10 batch entries, so B=23 runs three
# blocks, the last one short. Those keep the probabilities for the VJP; the
# two cases at S=64 and nh=2 (4 entries a block, the last block short over
# the limit) straddle ``_KEEP_PROBS``, above which the VJP recomputes them.
_AT_THE_LIMIT = T._KEEP_PROBS // (2 * 64 * 64)


@pytest.mark.parametrize("dtype, B, S, H, nh",
                         _dtypes_by_blocks(3, 7, 12, 3, three_blocks=(23, 40, 8, 2)) + [
                             pytest.param(np.float32, _AT_THE_LIMIT, 64, 8, 2,
                                          id="float32-kept-at-the-limit"),
                             pytest.param(np.float32, _AT_THE_LIMIT + 1, 64, 8, 2,
                                          id="float32-recomputed-over-the-limit")])
def test_attention_bitwise_equals_reference_expression(dtype, B, S, H, nh):
    rng = np.random.default_rng(17)
    p = 0.3
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in [(B, S, H), (H, 3 * H), (3 * H,), (H, H), (H,)]]
    gy = rng.standard_normal((B, S, H)).astype(dtype)
    pad = np.ones((B, S), dtype=np.float32)
    pad[1, 4:] = 0
    pad[2, 6:] = 0
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = T.causal_self_attention(*leaves, n_heads=nh, pad_mask=pad, dropout_p=p,
                                rng=np.random.default_rng(5))
    backward(probe(y, gy))
    want = _attention_reference(*arrays, nh, pad, p, 5, gy)
    got = [y.data] + [leaf.grad for leaf in leaves]
    for name, g, w in zip(["y", "x", "qkv_w", "qkv_b", "out_w", "out_b"], got, want):
        assert g.dtype == w.dtype == dtype, name
        assert g.tobytes() == w.tobytes(), name


def _loss_reference(z, targets, mask, pos_weight):
    """masked_weighted_loss of tanh(z) and its gradient into z, as the 13
    scalar ops the loss used to be built from (add_scalar, mul_scalar,
    clamp, neg, add_scalar, two log, two mul_const, two sum64, add,
    mul_scalar) written out in numpy: forward, then backward from 1."""
    dtype = z.dtype
    t, m, pw = (np.asarray(a, dtype=np.float64) for a in (targets, mask, pos_weight))
    coef_pos = (pw * t * m).astype(dtype)
    coef_neg = ((1.0 - t) * m).astype(dtype)
    s = -1.0 / float((m * (pw * t + (1.0 - t))).sum())
    lo, hi = 1e-7, 1.0 - 1e-7
    y = np.tanh(z)
    half = (y + 1.0) * 0.5
    p = np.clip(half, lo, hi)
    q = -p + 1.0
    total = (np.asarray((np.log(p) * coef_pos).sum(dtype=np.float64))
             + np.asarray((np.log(q) * coef_neg).sum(dtype=np.float64)))
    loss = np.asarray(total * s)

    g = np.full(z.shape, float(np.ones_like(loss) * s), dtype=dtype)  # mul_scalar, add, sum64
    gp = (g * coef_pos) / p          # mul_const, log
    gq = -((g * coef_neg) / q)       # mul_const, log, add_scalar, neg
    ghalf = (gp + gq) * ((half > lo) & (half < hi))  # both reach p; clamp
    gy = ghalf * 0.5                 # mul_scalar, add_scalar
    return loss, gy * (1.0 - y * y)  # tanh


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("shape", [(4, 6, 3), (16, 128, 51), (3, 7, 1)],
                         ids=["small", "full-scale", "one-label"])
def test_loss_bitwise_equals_reference_chain(dtype, shape):
    """The loss node through tanh, on saturated outputs (z = +-50 gives
    y = +-1 exactly) and masked cells, equals the old chain bit for bit."""
    from fedhar.model import masked_weighted_loss
    rng = np.random.default_rng(19)
    z = (rng.standard_normal(shape) * 4).astype(dtype)
    z.reshape(-1)[:4] = [50.0, -50.0, 1e-30, -1e-30]
    targets = (rng.random(shape) < 0.3).astype(np.float32)
    targets.reshape(-1)[:2] = [0.0, 1.0]  # the worst target for each saturated cell
    mask = (rng.random(shape) < 0.8).astype(np.float32)
    mask.reshape(-1)[:2] = 1.0
    pos_weight = rng.uniform(0.1, 100.0, shape[-1])
    leaf = Tensor(z.copy(), requires_grad=True)
    loss = masked_weighted_loss(T.tanh(leaf), targets, mask, pos_weight)
    backward(loss)
    want_loss, want_grad = _loss_reference(z, targets, mask, pos_weight)
    assert loss.data.dtype == np.float64 and leaf.grad.dtype == dtype
    assert loss.data.tobytes() == want_loss.tobytes()
    assert leaf.grad.tobytes() == want_grad.tobytes()
    assert np.all(leaf.grad.reshape(-1)[:2] == 0.0)  # clipped: no gradient


def test_loss_rejects_coefficients_of_another_shape():
    y = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="coefficients"):
        T.weighted_bce(y, np.ones(3), np.ones((2, 3)), 1.0, 1e-7)


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


def test_dropout_without_rng_raises():
    with pytest.raises(ConfigError, match="rng"):
        T.dropout(Tensor(np.ones(4)), 0.5, None)


def test_attention_dropout_without_rng_raises():
    x = Tensor(np.zeros((1, 2, 4)))
    ws = [Tensor(np.zeros(s)) for s in [(4, 12), (12,), (4, 4), (4,)]]
    with pytest.raises(ConfigError, match="rng"):
        T.causal_self_attention(x, *ws, n_heads=2, dropout_p=0.5, rng=None)


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(100), requires_grad=True)
    y = T.dropout(x, 0.5, np.random.default_rng(7))
    backward(probe(y))
    assert np.array_equal(x.grad, (y.data > 0) * 2.0)


# --------------------------------------------------------------- adam

def test_adam_first_step_size_is_lr():
    # bias correction makes |update| ~= lr regardless of grad scale
    for scale in (1e-4, 1.0, 1e4):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        p.grad = np.full(3, scale, dtype=np.float32)
        T.Adam().step({"p": p}, lr=0.1)
        assert np.allclose(p.data, -0.1, rtol=1e-3)


def test_adam_two_steps_match_reference_recurrence():
    g1 = np.array([0.5, -1.0])
    g2 = np.array([-0.25, 2.0])
    p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = T.Adam()
    for g in (g1, g2):
        p.grad = g
        opt.step({"p": p}, lr=0.01)

    m = v = np.zeros(2)
    x = np.array([1.0, 1.0])
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    assert np.allclose(p.data, x, atol=1e-12)


def test_adam_blocked_steps_equal_the_one_line_expressions_bitwise():
    """Three steps on a parameter of three blocks; ``p.data`` is rebound to a
    new array each step and the array it held is never written."""
    rng = np.random.default_rng(18)
    shape = (300, 257)
    assert np.prod(shape) > 2 * T._BLOCK
    x = rng.standard_normal(shape).astype(np.float32)
    p = Tensor(x.copy(), requires_grad=True)
    opt = T.Adam()
    m = v = np.zeros(shape, dtype=np.float32)
    for t in (1, 2, 3):
        g = (rng.standard_normal(shape) * 10.0 ** (t - 2)).astype(np.float32)
        g[0, :4] = [0.0, -0.0, 1e-30, 1e18]
        old, old_bytes = p.data, p.data.tobytes()
        p.grad = g
        opt.step({"p": p}, lr=1e-3)
        assert p.data is not old and old.tobytes() == old_bytes
        # the expressions Adam.step evaluated before it was blocked
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        x = x - 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p.data.dtype == np.float32
        assert p.data.tobytes() == x.tobytes(), t
        om, ov, ot = opt.states["p"]
        assert ot == t and om.tobytes() == m.tobytes() and ov.tobytes() == v.tobytes()


def test_adam_rejects_bad_lr_and_shape():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.zeros(2)
    opt = T.Adam()
    with pytest.raises(ConfigError):
        opt.step({"p": p}, lr=0.0)
    p.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        opt.step({"p": p}, lr=0.1)
    opt.step({"p": Tensor(np.zeros(2), requires_grad=True)}, lr=0.1)
    with pytest.raises(ShapeError):  # moments kept for a 2-vector under this name
        opt.step({"p": Tensor(np.zeros(3), requires_grad=True)}, lr=0.1)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_adam_rejects_a_rate_that_is_not_positive_and_finite(lr):
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    p.grad = np.ones(3, dtype=np.float32)
    opt = T.Adam()
    with pytest.raises(ConfigError, match="positive and finite"):
        opt.step({"p": p}, lr=lr)
    assert p.data.tobytes() == np.ones(3, dtype=np.float32).tobytes() and not opt.states


def test_adam_named_family_none_grad_still_steps_moments():
    params = {"a": Tensor(np.ones(2, dtype=np.float32), requires_grad=True)}
    opt = T.Adam()
    opt.step(params, lr=0.1)  # no grad yet -> treated as zeros
    assert np.allclose(params["a"].data, 1.0)
    m, v, t = opt.states["a"]
    assert t == 1 and not m.any() and not v.any()
