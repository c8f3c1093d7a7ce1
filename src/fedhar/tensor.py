"""Dense tensors with reverse-mode automatic differentiation and Adam.

numpy-backed, CPU only. Parameters and activations are float32, but every
op is dtype-generic: feeding float64 leaves runs the identical graph in
64-bit, which is the evaluation path the finite-difference checks use.
Loss-level reductions (``sum64``) accumulate in float64 regardless of the
graph dtype so repeated runs compare stably.

``linear`` is the op for weight projections (``x @ w + b`` with a 2-D
weight): it runs each of the forward product and both gradients as one 2-D
GEMM over the flattened rows of ``x``. Between its two ``linear``
projections, ``causal_self_attention`` is one node with a hand-written VJP:
the score and context products, the masked softmax and the attention
dropout.

The backward graph holds only the arrays its VJPs read. An op output that
a gradient can reach points to a ``_Node``: its inputs' nodes plus a VJP
closure over exactly the arrays and shapes that VJP reads, never over a
``Tensor``. So an activation no VJP reads (a residual sum, the raw
attention scores) is freed as soon as the forward drops it. A leaf is its
own node, so there is no Tensor-node reference cycle. An op whose inputs
all lack ``requires_grad`` builds no node, so a forward over no-grad
weights keeps no graph at all.

Importing this module raises glibc's malloc trim and mmap thresholds; see
``_keep_freed_heap`` for why.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "add",
    "add_scalar",
    "sub",
    "neg",
    "mul",
    "mul_scalar",
    "mul_const",
    "linear",
    "narrow0",
    "sum64",
    "log",
    "tanh",
    "gelu",
    "clamp",
    "relu",
    "layer_norm",
    "dropout",
    "causal_self_attention",
    "Adam",
]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Make glibc keep freed blocks of up to 32 MiB for reuse.

    Every training step frees its whole graph and then allocates the same
    sizes again. With glibc's defaults the freed top of the heap is handed
    back to the kernel and large blocks are mmapped afresh, so each step
    faults its pages in again: a repeated desk-scale ``train`` call (2
    layers, hidden 48, batch 64) took 12,203 minor page faults. Serving
    blocks up to 32 MiB (the ceiling of glibc's own dynamic mmap threshold
    on 64-bit) from the heap and trimming only above 1 GiB reuses the pages
    instead: 162 faults, and no higher peak, since each step reaches the
    same peak either way. Elsewhere than glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30)):
        if mallopt(param, value) != 1:
            return  # this glibc rejects the value; keep its defaults


_keep_freed_heap()


class _Node:
    """One op of the backward graph.

    ``parents`` holds, per op input, the node its gradient flows into: a
    ``_Node``, a grad-requiring leaf ``Tensor`` (its own node), or None when
    no gradient flows there. ``vjp`` maps the output's gradient to one
    gradient per input and closes over arrays and shapes only.
    """

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A dense array plus the bookkeeping needed to backpropagate through it.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad`` when
    ``backward`` runs on a scalar descendant. An op output has
    ``requires_grad`` iff some input does, and only then a ``_node``: the
    graph below it holds the arrays its VJPs read, not the op outputs, and
    it lives as long as the output does. Backward keeps the graph, and calls
    accumulate (two calls double the gradient); clear them between optimizer
    steps with ``WeightSet.zero_grads``.
    Tensors written by an op are treated as immutable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, _node: _Node | None = None):
        if isinstance(data, np.ndarray):
            self.data = data
        elif isinstance(data, np.generic):
            # numpy scalar (e.g. from a 0-d reduction): keep its dtype
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self._node = _node
        self.requires_grad = bool(requires_grad) or _node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # operator sugar; scalars go through the *_scalar ops
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_scalar(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else mul_scalar(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else add_scalar(self, -other)


def _graph_ref(t: Tensor):
    """The node gradients for ``t`` flow into, or None if none do."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _result(data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """An op output; it gets a node only if a gradient can reach an input."""
    parents = tuple([_graph_ref(t) for t in inputs])
    if parents.count(None) == len(parents):
        return Tensor(data)
    return Tensor(data, _node=_Node(parents, vjp))


def _topo_order(root) -> list:
    """Post-order over the graph below ``root`` (leaves first)."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is _Node:
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Push d(loss)/d(leaf) into every reachable leaf's ``.grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = _graph_ref(loss)
    if root is None:
        return
    order = _topo_order(root)
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if type(node) is not _Node:  # a leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or parent is None:
                continue
            pid = id(parent)
            if pid in flowing:
                flowing[pid] = flowing[pid] + pg
            else:
                flowing[pid] = pg


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _result(a.data - b.data, (a, b), vjp)


def neg(x: Tensor) -> Tensor:
    return _result(-x.data, (x,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _result(ad * bd, (a, b), vjp)


def add_scalar(x: Tensor, s: float) -> Tensor:
    return _result(x.data + float(s), (x,), lambda g: (g,))


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _result(x.data * s, (x,), lambda g: (g * s,))


def mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a constant array (no gradient through ``c``)."""
    c = np.asarray(c, dtype=x.data.dtype)
    shape = x.data.shape

    def vjp(g):
        return (_unbroadcast(g * c, shape),)

    return _result(x.data * c, (x,), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for ``x`` of shape [..., in], ``w`` [in, out], ``b`` [out].

    The leading axes of ``x`` are flattened into rows, so the forward product,
    dx and dW are each one 2-D GEMM; dW reduces over all rows at once instead
    of summing one product per batch entry.
    """
    if w.data.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D [in, out], got {w.shape}")
    n_in, n_out = w.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != n_in:
        raise ShapeError(f"linear: inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.data.shape != (n_out,):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    x_shape, wd, need_gx = x.data.shape, w.data, x.requires_grad
    x2 = x.data.reshape(-1, n_in)
    out = x2 @ wd
    out += b.data
    data = out.reshape(x_shape[:-1] + (n_out,))

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        gx = (g2 @ wd.T).reshape(x_shape) if need_gx else None
        return gx, x2.T @ g2, _unbroadcast(g, (n_out,))

    return _result(data, (x, w, b), vjp)


def narrow0(x: Tensor, size: int) -> Tensor:
    """Slice the first ``size`` rows of axis 0."""
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dtype)
        full[:size] = g
        return (full,)

    return _result(x.data[:size], (x,), vjp)


def sum64(x: Tensor) -> Tensor:
    """Sum every element, accumulating in float64. Result is a float64 scalar."""
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        return (np.full(shape, float(g), dtype=dtype),)

    return _result(np.asarray(x.data.sum(dtype=np.float64)), (x,), vjp)


def log(x: Tensor) -> Tensor:
    xd = x.data
    return _result(np.log(xd), (x,), lambda g: (g / xd,))


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return _result(data, (x,), lambda g: (g * (1.0 - data * data),))


def relu(x: Tensor) -> Tensor:
    positive = x.data > 0
    return _result(np.maximum(x.data, 0), (x,), lambda g: (g * positive,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GPT-2 style tanh-approximated GELU.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3))), evaluated in place in
    the same operation order as that expression, so the bits match it.
    """
    xd = x.data
    t = np.multiply(xd, 0.044715)
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    data = np.multiply(xd, 0.5)
    data *= np.add(t, 1.0)

    def vjp(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t*t) * c * (1 + 3 * 0.044715 * x*x))
        dinner = np.multiply(xd, 3.0 * 0.044715)
        dinner *= xd
        dinner += 1.0
        dinner *= _GELU_C
        tmp = np.multiply(t, t)
        np.subtract(1.0, tmp, out=tmp)
        dx = np.multiply(xd, 0.5)
        dx *= tmp
        dx *= dinner
        np.add(t, 1.0, out=tmp)
        tmp *= 0.5
        dx += tmp
        dx *= g
        return (dx,)

    return _result(data, (x,), vjp)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient flows only strictly inside the range."""
    inside = (x.data > lo) & (x.data < hi)
    return _result(np.clip(x.data, lo, hi), (x,), lambda g: (g * inside,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    width = x.data.shape[-1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} "
            f"do not match input width ({width},)"
        )
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    centered = xd - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gd = gain.data
    data = xhat * gd + bias.data

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _result(data, (x, gain, bias), vjp)


def _draw_dropout(x: np.ndarray, p: float, rng: np.random.Generator):
    """Draw and apply a dropout mask: (dropped ``x``, bool mask, 1/(1-p) scale)."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    keep = 1.0 - p
    kept = rng.random(x.shape) < keep
    scale = x.dtype.type(1.0 / keep)
    return _masked(x, kept, scale), kept, scale


def _masked(x: np.ndarray, kept: np.ndarray, scale) -> np.ndarray:
    """``x`` scaled by ``scale`` with the dropped entries zeroed.

    This gives the bits of a product with the scaled float mask wherever the
    scaled value is finite.
    """
    out = np.multiply(x, scale)
    out *= kept
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p). No-op at p<=0.

    The graph keeps the mask as bool.
    """
    if p <= 0.0:
        return x
    data, kept, scale = _draw_dropout(x.data, p, rng)
    return _result(data, (x,), lambda g: (_masked(g, kept, scale),))


def causal_self_attention(
    x: Tensor,
    qkv_w: Tensor,
    qkv_b: Tensor,
    out_w: Tensor,
    out_b: Tensor,
    n_heads: int,
    pad_mask: np.ndarray | None = None,
    n_positions: int | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Multi-head causal self-attention over [B, T, H] activations.

    ``pad_mask`` is a constant {0,1} array of shape [B, T]; padded positions
    receive zero attention weight from every query. Scores are scaled by
    sqrt(H / n_heads). Every sequence must contain at least one real
    position or the masked softmax degenerates.

    The qkv and output projections are ``linear`` ops; everything between
    them is one graph node. It keeps the qkv array, the probabilities and
    the bool dropout mask, and its VJP recomputes the dropped probabilities.
    The softmax denominator and quotient are float64, cast back into the
    probabilities' buffer chunk by chunk.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"attention input must be [B, T, H], got {x.shape}")
    batch, seq, width = x.data.shape
    if width % n_heads != 0:
        raise ConfigError(f"hidden size {width} not divisible by n_heads {n_heads}")
    if n_positions is not None and seq > n_positions:
        raise ShapeError(f"sequence length {seq} exceeds n_positions {n_positions}")
    if pad_mask is not None and pad_mask.shape != (batch, seq):
        raise ShapeError(f"pad_mask shape {pad_mask.shape} != ({batch}, {seq})")
    head_dim = width // n_heads
    scale = 1.0 / math.sqrt(head_dim)

    qkv = linear(x, qkv_w, qkv_b)  # [B, T, 3H]
    # q, k and v as [B, nh, T, hd] views of qkv
    q, k, v = qkv.data.reshape(batch, seq, 3, n_heads, head_dim).transpose(2, 0, 3, 1, 4)

    allowed = np.tril(np.ones((seq, seq), dtype=bool))[None, None, :, :]
    if pad_mask is not None:
        allowed = allowed & pad_mask.astype(bool)[:, None, None, :]
    probs = q @ k.transpose(0, 1, 3, 2)  # [B, nh, T, T]
    probs *= scale
    probs += np.where(allowed, 0.0, -1e9).astype(x.data.dtype)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    denom = probs.sum(axis=-1, keepdims=True, dtype=np.float64)
    np.divide(probs, denom, out=probs, dtype=np.float64)
    kept = keep_scale = None
    if dropout_p > 0.0 and rng is not None:
        dropped, kept, keep_scale = _draw_dropout(probs, dropout_p, rng)
    else:
        dropped = probs
    ctx = (dropped @ v).transpose(0, 2, 1, 3).reshape(batch, seq, width)
    del dropped

    def vjp(g):
        g = g.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3)
        dropped = probs if kept is None else _masked(probs, kept, keep_scale)
        gv = dropped.swapaxes(-1, -2) @ g
        del dropped
        gp = g @ v.swapaxes(-1, -2)
        if kept is not None:
            gp = _masked(gp, kept, keep_scale)
        # softmax VJP: probs * (gp - rowsum(gp * probs)), then the score scale
        gs = np.multiply(gp, probs)
        dot = gs.sum(axis=-1, keepdims=True)
        np.subtract(gp, dot, out=gs)
        del gp
        gs *= probs
        gs *= scale
        gq = gs @ k
        gk = (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        gqkv = np.zeros((batch, seq, 3, n_heads, head_dim), dtype=gs.dtype)
        for i, gi in enumerate((gq, gk, gv)):
            gqkv[:, :, i] += gi.transpose(0, 2, 1, 3)
        return (gqkv.reshape(batch, seq, 3 * width),)

    return linear(_result(ctx, (qkv,), vjp), out_w, out_b)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam (no weight decay) over a named family of parameters.

    ``states`` maps each parameter name to its moments ``(m, v, t)``,
    created at the name's first step.
    """

    def __init__(self):
        self.states: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        """Update every parameter in place from its ``grad`` (None counts as zeros)."""
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"Adam {name}: grad shape {g.shape} != param shape {p.data.shape}")
            # popped, so the old moments are freed as the new ones replace them
            m, v, t = (self.states.pop(name, None)
                       or (np.zeros_like(p.data), np.zeros_like(p.data), 0))
            if m.shape != p.data.shape:
                raise ShapeError(
                    f"Adam {name}: state shape {m.shape} != param shape {p.data.shape}")
            t += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            self.states[name] = (m, v, t)
