"""Dense tensors with reverse-mode automatic differentiation and Adam.

numpy-backed, CPU only. Parameters and activations are float32, but every
op is dtype-generic: feeding float64 leaves runs the identical graph in
64-bit, which is the evaluation path the finite-difference checks use.
Loss-level reductions (``sum64``) accumulate in float64 regardless of the
graph dtype so repeated runs compare stably.

``linear`` is the op for weight projections (``x @ w + b`` with a 2-D
weight): it runs each of the forward product and both gradients as one 2-D
GEMM over the flattened rows of ``x``. ``matmul`` is for batched products
of activations, such as the attention scores and context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "add",
    "add_scalar",
    "add_const",
    "sub",
    "neg",
    "mul",
    "mul_scalar",
    "mul_const",
    "matmul",
    "linear",
    "reshape",
    "transpose",
    "narrow_last",
    "narrow0",
    "sum64",
    "log",
    "tanh",
    "gelu",
    "clamp",
    "relu",
    "softmax_rows",
    "layer_norm",
    "dropout",
    "causal_self_attention",
    "AdamState",
    "adam_step",
    "Adam",
]


class Tensor:
    """A dense array plus the bookkeeping needed to backpropagate through it.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad`` when
    ``backward`` runs on a scalar descendant. Backward calls accumulate (two
    calls double the gradient); use ``zero_grad`` between optimizer steps.
    Tensors written by an op are treated as immutable.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        if isinstance(data, np.ndarray):
            self.data = data
        elif isinstance(data, np.generic):
            # numpy scalar (e.g. from a 0-d reduction): keep its dtype
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self._parents = _parents
        self._vjp = _vjp
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

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

    def __matmul__(self, other):
        return matmul(self, other)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the grad-requiring subgraph (leaves first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Push d(loss)/d(leaf) into every reachable leaf's ``.grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
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
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(data, _parents=(a, b), _vjp=vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor(data, _parents=(a, b), _vjp=vjp)


def neg(x: Tensor) -> Tensor:
    return Tensor(-x.data, _parents=(x,), _vjp=lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return Tensor(data, _parents=(a, b), _vjp=vjp)


def add_scalar(x: Tensor, s: float) -> Tensor:
    return Tensor(x.data + float(s), _parents=(x,), _vjp=lambda g: (g,))


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor(x.data * s, _parents=(x,), _vjp=lambda g: (g * s,))


def add_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (no gradient through ``c``)."""
    return Tensor(x.data + c, _parents=(x,), _vjp=lambda g: (_unbroadcast(g, x.data.shape),))


def mul_const(x: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a constant array (no gradient through ``c``)."""
    c = np.asarray(c, dtype=x.data.dtype)

    def vjp(g):
        return (_unbroadcast(g * c, x.data.shape),)

    return Tensor(x.data * c, _parents=(x,), _vjp=vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return Tensor(data, _parents=(a, b), _vjp=vjp)


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
    x2 = x.data.reshape(-1, n_in)
    out = x2 @ w.data
    out += b.data
    data = out.reshape(x.data.shape[:-1] + (n_out,))

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        return gx, x2.T @ g2, _unbroadcast(g, b.data.shape)

    return Tensor(data, _parents=(x, w, b), _vjp=vjp)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    data = x.data.reshape(shape)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g.reshape(x.data.shape),))


def transpose(x: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))
    data = x.data.transpose(axes)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g.transpose(inverse),))


def narrow_last(x: Tensor, start: int, size: int) -> Tensor:
    """Slice ``size`` columns of the last axis starting at ``start``."""
    data = x.data[..., start : start + size]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[..., start : start + size] = g
        return (full,)

    return Tensor(data, _parents=(x,), _vjp=vjp)


def narrow0(x: Tensor, size: int) -> Tensor:
    """Slice the first ``size`` rows of axis 0."""
    data = x.data[:size]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[:size] = g
        return (full,)

    return Tensor(data, _parents=(x,), _vjp=vjp)


def sum64(x: Tensor) -> Tensor:
    """Sum every element, accumulating in float64. Result is a float64 scalar."""
    val = np.asarray(x.data.sum(dtype=np.float64))

    def vjp(g):
        return (np.full(x.data.shape, float(g), dtype=x.data.dtype),)

    return Tensor(val, _parents=(x,), _vjp=vjp)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g / x.data,))


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g * (1.0 - data * data),))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)
    mask = (x.data > 0).astype(x.data.dtype)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g * mask,))


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

    return Tensor(data, _parents=(x,), _vjp=vjp)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient flows only strictly inside the range."""
    data = np.clip(x.data, lo, hi)
    inside = ((x.data > lo) & (x.data < hi)).astype(x.data.dtype)
    return Tensor(data, _parents=(x,), _vjp=lambda g: (g * inside,))


def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax along the last axis, stable under large magnitudes.

    The denominator and the quotient are float64; numpy casts the quotient
    back into the exp buffer chunk by chunk, so no float64 copy of the whole
    tensor exists.
    """
    xd = x.data
    y = np.subtract(xd, xd.max(axis=-1, keepdims=True))
    np.exp(y, out=y)
    denom = y.sum(axis=-1, keepdims=True, dtype=np.float64)
    np.divide(y, denom, out=y, dtype=np.float64)

    def vjp(g):
        gx = np.multiply(g, y)
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= y
        return (gx,)

    return Tensor(y, _parents=(x,), _vjp=vjp)


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
    data = xhat * gain.data + bias.data

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return Tensor(data, _parents=(x, gain, bias), _vjp=vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p). No-op at p<=0."""
    if p <= 0.0:
        return x
    if not 0.0 < p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) * (1.0 / keep)
    return Tensor(x.data * mask, _parents=(x,), _vjp=lambda g: (g * mask,))


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
    """
    if x.data.ndim != 3:
        raise ShapeError(f"attention input must be [B, T, H], got {x.shape}")
    batch, seq, width = x.data.shape
    if width % n_heads != 0:
        raise ConfigError(f"hidden size {width} not divisible by n_heads {n_heads}")
    if n_positions is not None and seq > n_positions:
        raise ShapeError(f"sequence length {seq} exceeds n_positions {n_positions}")
    head_dim = width // n_heads

    qkv = linear(x, qkv_w, qkv_b)  # [B, T, 3H]
    parts = []
    for i in range(3):
        piece = narrow_last(qkv, i * width, width)
        piece = reshape(piece, (batch, seq, n_heads, head_dim))
        parts.append(transpose(piece, (0, 2, 1, 3)))  # [B, nh, T, hd]
    q, k, v = parts

    scores = matmul(q, transpose(k, (0, 1, 3, 2)))  # [B, nh, T, T]
    scores = mul_scalar(scores, 1.0 / math.sqrt(head_dim))

    allowed = np.tril(np.ones((seq, seq), dtype=bool))[None, None, :, :]
    if pad_mask is not None:
        if pad_mask.shape != (batch, seq):
            raise ShapeError(f"pad_mask shape {pad_mask.shape} != ({batch}, {seq})")
        allowed = allowed & pad_mask.astype(bool)[:, None, None, :]
    bias = np.where(allowed, 0.0, -1e9).astype(x.data.dtype)
    att = softmax_rows(add_const(scores, bias))
    if dropout_p > 0.0 and rng is not None:
        att = dropout(att, dropout_p, rng)

    ctx = matmul(att, v)  # [B, nh, T, hd]
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, seq, width))
    return linear(ctx, out_w, out_b)


@dataclass
class AdamState:
    """Running Adam moments for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: Tensor, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros_like(param.data), np.zeros_like(param.data), 0, beta1, beta2, eps)


def adam_step(param: Tensor, grad, state: AdamState, lr: float):
    """One Adam update (bias-corrected, no weight decay) in place."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad)
    if g.shape != param.data.shape:
        raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {param.data.shape}")
    if state.m.shape != param.data.shape:
        raise ShapeError(f"adam_step: state shape {state.m.shape} != param shape {param.data.shape}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
    mhat = state.m / (1.0 - state.beta1 ** state.t)
    vhat = state.v / (1.0 - state.beta2 ** state.t)
    param.data = param.data - lr * mhat / (np.sqrt(vhat) + state.eps)
    return param, state


class Adam:
    """Adam states for a named family of parameters, created lazily."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.states: dict[str, AdamState] = {}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        for name, p in params.items():
            state = self.states.get(name)
            if state is None:
                state = AdamState.for_param(p, self.beta1, self.beta2, self.eps)
                self.states[name] = state
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            adam_step(p, g, state, lr)
