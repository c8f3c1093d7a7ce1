"""Dense tensors with reverse-mode automatic differentiation and Adam.

numpy-backed, CPU only. Parameters and activations are float32, but every
op is dtype-generic: feeding float64 leaves runs the identical graph in
64-bit, which is the evaluation path the finite-difference checks use.

``linear`` is the op for weight projections (``x @ w + b`` with a 2-D
weight): it runs each of the forward product and both gradients as one 2-D
GEMM over the flattened rows of ``x``. ``gelu_linear`` is ``linear`` over
``gelu`` in one node, the MLP's activation and output projection. Two ops
are whole sub-graphs in one node with a hand-written VJP. Between its two
``linear`` projections, ``causal_self_attention`` does the score and
context products, the masked softmax and the attention dropout.
``weighted_bce`` is the training loss on the tanh head: the clip, both logs,
the two weighted sums and the normalisation. Its sums accumulate in float64
regardless of the graph dtype, so repeated runs compare stably.

The backward graph holds only the arrays its VJPs read, each once. An op
output that a gradient can reach points to a ``_Node``: its inputs' nodes
plus a VJP closure over exactly the arrays and shapes that VJP reads, never
over a ``Tensor``. So an activation no VJP reads (a residual sum, the raw
attention scores) is freed as soon as the forward drops it. A leaf is its
own node, so there is no Tensor-node reference cycle. An op whose inputs
all lack ``requires_grad`` builds no node, so a forward over no-grad
weights keeps no graph at all.

What a training step keeps per block: layer norm's xhat and inverse
deviation (twice), attention's qkv, bias and row statistics (and its
probabilities when small, see ``_KEEP_PROBS``) and bool dropout mask, the
context the output projection reads, the MLP's pre-activation and the
bool dropout mask of its output. No GELU or layer-norm output is kept.
``gelu_linear`` keeps only the pre-activation and rebuilds the GELU output
in its VJP. A node may carry a ``rebuild`` recipe that recomputes its
output bit for bit from arrays its own VJP keeps; ``layer_norm``'s is its
forward expression ``xhat * gain + bias``. A ``linear`` whose input has a
recipe keeps the recipe, not the input, and runs it in its VJP for dW.
The recipe reads the gain and bias arrays the forward read, so this relies
on a parameter's array never being written in place: ``Adam.step`` binds
each parameter to a new array instead. ``training.train`` relies on the
same rule: it trains over the caller's parameter arrays without copying
them.

When each array is freed: a node's arrays live from the forward until
``backward`` has run its VJP, or has found that no gradient reaches it.
The pass then drops the node's VJP and recipe, so a block's activations
are freed as the pass moves below it, while the leaves' gradients fill
in. A node runs only after every node that reads its recipe, so no VJP
finds a recipe dropped. A graph can thus be backpropagated only once; a
second pass through it raises. The gradients live until the optimizer
step has read them: ``training.train`` clears them right after
``Adam.step``, so no gradient is alive while the next forward builds its
graph.

The elementwise chains of a training step (GELU and its VJP, attention's
scale/bias/softmax/dropout chain, the dropout draw and Adam) run over
blocks of about ``_BLOCK`` elements, so each chain's temporaries are a few
cache-sized blocks, not whole arrays. Every element goes through the same
numpy operations in the same order as the whole-array expressions, so the
bits are theirs. Recomputing a cache-resident block costs less than
storing and reloading a whole array, so GELU keeps only x and attention
keeps its rows' max and sum; each VJP recomputes the rest per block. Only
attention probabilities small enough to stay in one core's cache
(``_KEEP_PROBS``) are kept whole instead. Adam updates its moments in place.

Importing this module raises glibc's malloc trim and mmap thresholds; see
``_keep_freed_heap`` for why. It also looks up the thread-count functions
of the OpenBLAS numpy's wheel bundles, so that TCP client threads in one
process share its thread pool; see ``_BlasShare``.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading

import numpy as np

from .errors import ConfigError, FedharError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "linear",
    "narrow0",
    "tanh",
    "gelu",
    "gelu_linear",
    "relu",
    "layer_norm",
    "dropout",
    "causal_self_attention",
    "weighted_bce",
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

    The faults cost time end to end. On a 2-core host, in five alternating
    pairs of ``bench/run.py --workload all --seconds 10`` with and without
    this call: desk ``wall_s`` 14.7 s against 15.9 s (medians; lower with it
    in 4 of 5 pairs), full ``train_samples_per_s`` 16.2 against 15.7
    (higher in 5 of 5) and tcp ``wall_s`` 1.44 against 1.67 s (lower in 4
    of 5), with the same bits.
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

# (getter, setter) names: numpy 2.x wheels bundle scipy-openblas, numpy
# 1.2x wheels an OpenBLAS with a 64-bit-integer interface.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _find_openblas():
    """(library file name, getter, setter) of numpy's bundled OpenBLAS.

    None when numpy links another BLAS (MKL, Accelerate, a system build) or
    its library exports no thread-count functions.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return os.path.basename(path), get, set_
    return None


_openblas = _find_openblas()
# the thread count the process started with (OPENBLAS_NUM_THREADS or cores)
_blas_start = _openblas[1]() if _openblas is not None else None


def _share_threads(holders: int) -> int:
    """The BLAS threads each of ``holders`` sharers gets: ``max(1, start //
    holders)``, with ``start`` the count at import; the whole pool for none."""
    return max(1, _blas_start // max(1, holders))


class _BlasShare:
    """Split the BLAS thread pool between the TCP client threads of a process.

    Clients that share a process (``wire.client_loop`` threads) would
    otherwise each run their GEMMs on the whole pool and oversubscribe the
    cores. Each client holds one share for its whole connection; nothing
    else takes one, so two threads that call ``training.train`` directly do
    not split the pool. Each entry and exit changes the holder count by one
    and sets the pool to ``_share_threads(holders)``, only when that value
    changes: a lone holder never calls the setter, and a process started at
    1 thread stays there. The lock covers the counter and the setter, never
    the training.

    Holding a share across a whole connection matters because OpenBLAS's
    idle worker spins: after one 512x512 float32 product, a 0.2 s sleep
    burned about 0.13 s of CPU (none after 1 s idle). A pool restored to
    full size between one client's fit and the next thus wakes a worker
    that takes a core from the other client and the server.

    OpenBLAS splits a GEMM over output rows and columns, not the summed
    axis, so the bits do not depend on the count. Without numpy's OpenBLAS
    this does nothing. Across processes the share is set at start:
    ``fedavg.run_fold`` starts each of its worker processes with
    ``OPENBLAS_NUM_THREADS`` at ``_share_threads(workers)``, which the
    worker reads as its own ``start``. Processes started apart, such as
    several ``fed-client`` on one host, are not coordinated: each should
    set ``OPENBLAS_NUM_THREADS`` to its share of the cores itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0  # shares held

    def _change(self, delta: int) -> None:
        if _openblas is None:
            return
        with self._lock:
            self._active += delta
            threads = _share_threads(self._active)
            if threads != _share_threads(self._active - delta):
                _openblas[2](threads)

    def __enter__(self):
        self._change(1)

    def __exit__(self, *exc):
        self._change(-1)


_blas_share = _BlasShare()


class _Node:
    """One op of the backward graph.

    ``parents`` holds, per op input, the node its gradient flows into: a
    ``_Node``, a grad-requiring leaf ``Tensor`` (its own node), or None when
    no gradient flows there. ``vjp`` maps the output's gradient to one
    gradient per input and closes over arrays and shapes only. ``rebuild``,
    when not None, recomputes the op's output array, bit for bit, from what
    ``vjp`` keeps anyway; an op that keeps its input for its own VJP keeps
    this recipe instead when the input's node has one.
    """

    __slots__ = ("parents", "vjp", "rebuild")

    def __init__(self, parents: tuple, vjp, rebuild=None):
        self.parents = parents
        self.vjp = vjp
        self.rebuild = rebuild


class Tensor:
    """A dense array plus the bookkeeping needed to backpropagate through it.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad`` when
    ``backward`` runs on a scalar descendant. An op output has
    ``requires_grad`` iff some input does, and only then a ``_node``: the
    graph below it holds the arrays its VJPs read, not the op outputs, and
    keeps them until ``backward`` consumes them, node by node; after that
    the graph cannot be backpropagated again. Gradients of separate graphs
    over the same leaves add up in ``.grad`` until it is cleared
    (``WeightSet.zero_grads``).
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


def _graph_ref(t: Tensor):
    """The node gradients for ``t`` flow into, or None if none do."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _result(data: np.ndarray, inputs: tuple, vjp, rebuild=None) -> Tensor:
    """An op output; it gets a node only if a gradient can reach an input."""
    parents = tuple([_graph_ref(t) for t in inputs])
    if parents.count(None) == len(parents):
        return Tensor(data)
    return Tensor(data, _node=_Node(parents, vjp, rebuild))


def _kept_input(x: Tensor):
    """A callable giving ``x.data`` when a VJP runs: the recipe of ``x``'s
    node when it has one, so the graph does not hold that array twice."""
    if x._node is not None and x._node.rebuild is not None:
        return x._node.rebuild
    xd = x.data
    return lambda: xd


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
    """Push d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Each node drops its VJP and ``rebuild`` recipe once the pass has run or
    skipped it, so the arrays they close over are freed mid-pass, not when
    the graph dies. A node runs after every node that reads its recipe, so
    none is dropped before its last reader has run. A second pass through
    the same graph raises ``FedharError``; gradients still add up over
    separate graphs built from the same leaves.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    root = _graph_ref(loss)
    if root is None:
        return
    order = _topo_order(root)
    flowing: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if type(node) is not _Node:  # a leaf
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        vjp, node.vjp, node.rebuild = node.vjp, None, None
        if g is None:
            continue
        if vjp is None:
            raise FedharError("this graph's backward has already run; build it again")
        for parent, pg in zip(node.parents, vjp(g)):
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


# Elements per block of an elementwise chain: small enough that the chain's
# block temporaries stay in cache between its passes.
_BLOCK = 1 << 15


# Attention keeps its [B, nh, T, T] probabilities for the VJP up to this
# many elements and recomputes them block by block above it: 2 MiB of
# float32, one core's L2 on a 2-core Xeon. There, keeping them made
# attention's forward plus backward 8% faster at 1 and 2 MiB ([64, 4, 32,
# 32], desk's shape, and [32, 4, 64, 64]), but only 2-3% at [16, 6, 128,
# 128] (6 MiB, full's shape), where it would hold 6 MiB more per layer
# through the backward pass.
_KEEP_PROBS = 1 << 19


def _spans(n: int, step: int = _BLOCK):
    """``(lo, hi)`` bounds covering ``range(n)`` in steps of ``step``."""
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _result(ad * bd, (a, b), vjp)


def _linear_dims(op: str, x: Tensor, w: Tensor, b: Tensor) -> tuple[int, int]:
    """``w``'s (in, out), once ``x``, ``w`` and ``b`` are checked to fit ``x @ w + b``."""
    if w.data.ndim != 2:
        raise ShapeError(f"{op}: weight must be 2-D [in, out], got {w.shape}")
    n_in, n_out = w.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != n_in:
        raise ShapeError(f"{op}: inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.data.shape != (n_out,):
        raise ShapeError(f"{op}: bias {b.shape} does not match weight {w.shape}")
    return n_in, n_out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for ``x`` of shape [..., in], ``w`` [in, out], ``b`` [out].

    The leading axes of ``x`` are flattened into rows, so the forward product,
    dx and dW are each one 2-D GEMM; dW reduces over all rows at once instead
    of summing one product per batch entry. For dW the node keeps ``x``, or
    the ``rebuild`` recipe of ``x``'s node when it has one.
    """
    n_in, n_out = _linear_dims("linear", x, w, b)
    x_shape, wd, need_gx = x.data.shape, w.data, x.requires_grad
    kept = _kept_input(x)
    out = x.data.reshape(-1, n_in) @ wd
    out += b.data
    data = out.reshape(x_shape[:-1] + (n_out,))

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        gx = (g2 @ wd.T).reshape(x_shape) if need_gx else None
        return gx, kept().reshape(-1, n_in).T @ g2, _unbroadcast(g, (n_out,))

    return _result(data, (x, w, b), vjp)


def narrow0(x: Tensor, size: int) -> Tensor:
    """Slice the first ``size`` rows of axis 0."""
    shape, dtype = x.data.shape, x.data.dtype

    def vjp(g):
        full = np.zeros(shape, dtype=dtype)
        full[:size] = g
        return (full,)

    return _result(x.data[:size], (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)
    return _result(data, (x,), lambda g: (g * (1.0 - data * data),))


def relu(x: Tensor) -> Tensor:
    positive = x.data > 0
    return _result(np.maximum(x.data, 0), (x,), lambda g: (g * positive,))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(xb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c * (x + 0.044715 * x**3)) of one block, into ``out``."""
    np.multiply(xb, 0.044715, out=out)
    out *= xb
    out *= xb
    out += xb
    out *= _GELU_C
    return np.tanh(out, out=out)


def _gelu_slope(xb: np.ndarray, tb: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU's derivative over one block, into ``out``.

    0.5 * x * (1 - t*t) * c * (1 + 3 * 0.044715 * x*x) + 0.5 * (1 + t), with
    ``tb`` holding t from ``_gelu_tanh``; ``tb`` is left holding 1 + t, and
    ``tmp`` is scratch of the block's size.
    """
    np.multiply(tb, tb, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(xb, 0.5, out=out)
    out *= tmp
    # 1 - t*t is spent: the same block holds the inner derivative
    np.multiply(xb, 3.0 * 0.044715, out=tmp)
    tmp *= xb
    tmp += 1.0
    tmp *= _GELU_C
    out *= tmp
    tb += 1.0
    out += np.multiply(tb, 0.5, out=tmp)
    return out


def gelu(x: Tensor) -> Tensor:
    """GPT-2 style tanh-approximated GELU.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3))), evaluated block by block
    in the same operation order as that expression, so the bits match it.
    The node keeps only x; its VJP recomputes the tanh per block.
    """
    xd = x.data
    flat = xd.reshape(-1)
    data = np.empty(xd.shape, dtype=xd.dtype)
    out = data.reshape(-1)
    t = np.empty(min(flat.size, _BLOCK), dtype=xd.dtype)
    for lo, hi in _spans(flat.size):
        xb, tb, ob = flat[lo:hi], t[:hi - lo], out[lo:hi]
        _gelu_tanh(xb, tb)
        np.multiply(xb, 0.5, out=ob)
        tb += 1.0
        ob *= tb

    def vjp(g):
        flat, gf = xd.reshape(-1), g.reshape(-1)
        dx = np.empty(xd.shape, dtype=xd.dtype)
        out = dx.reshape(-1)
        t = np.empty(min(flat.size, _BLOCK), dtype=xd.dtype)
        tmp = np.empty_like(t)
        for lo, hi in _spans(flat.size):
            xb, n = flat[lo:hi], hi - lo
            _gelu_slope(xb, _gelu_tanh(xb, t[:n]), tmp[:n], out[lo:hi])
            out[lo:hi] *= gf[lo:hi]
        return (dx,)

    return _result(data, (x,), vjp)


def gelu_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear(gelu(x), w, b)`` as one node that keeps only ``x``.

    The forward runs ``gelu`` on a graph-free tensor over ``x``'s array and
    drops its output once the product is taken, so the result has the
    two-op form's bits. The VJP computes the tanh once per block. From it
    it writes the GELU output into one transient array for dW, and it
    multiplies dy, the gradient at the GELU output, by GELU's derivative in
    place, which turns dy into dx. Every element goes through the two-op
    form's operations, so dx, dW and db have its bits too. The VJP
    allocates its block scratch once, not per block.
    """
    n_in, n_out = _linear_dims("gelu_linear", x, w, b)
    xd, wd, need_gx = x.data, w.data, x.requires_grad
    out = gelu(Tensor(xd)).data.reshape(-1, n_in) @ wd
    out += b.data
    data = out.reshape(xd.shape[:-1] + (n_out,))

    def vjp(g):
        g2 = g.reshape(-1, n_out)
        dx = g2 @ wd.T if need_gx else None
        h = np.empty(xd.shape, dtype=xd.dtype)
        xf, hf = xd.reshape(-1), h.reshape(-1)
        df = None if dx is None else dx.reshape(-1)
        t = np.empty(min(xf.size, _BLOCK), dtype=xd.dtype)
        tmp, slope = np.empty_like(t), np.empty_like(t)
        for lo, hi in _spans(xf.size):
            xb, n = xf[lo:hi], hi - lo
            tb = _gelu_tanh(xb, t[:n])
            if df is not None:
                df[lo:hi] *= _gelu_slope(xb, tb, tmp[:n], slope[:n])
            else:
                tb += 1.0
            hb = np.multiply(xb, 0.5, out=hf[lo:hi])
            hb *= tb
        return (None if dx is None else dx.reshape(xd.shape),
                h.reshape(-1, n_in).T @ g2, _unbroadcast(g, (n_out,)))

    return _result(data, (x, w, b), vjp)


LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (``LN_EPS``
    added to the variance), then affine.

    The node keeps xhat and the inverse deviation for its VJP. Its
    ``rebuild`` recipe recomputes the output as the forward does, ``xhat *
    gain + bias``, so a ``linear`` that reads this output keeps the recipe,
    not a second array of the output's size.
    """
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
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    gd, bd = gain.data, bias.data

    def rebuild():
        return xhat * gd + bd

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _result(rebuild(), (x, gain, bias), vjp, rebuild)


def _keep_rate(p: float, rng) -> float:
    """1 - p for a dropout rate ``p`` in (0, 1); the mask needs an ``rng``."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None:
        raise ConfigError(f"dropout at rate {p} needs an rng")
    return 1.0 - p


def _masked(x: np.ndarray, kept: np.ndarray, scale, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` scaled by ``scale`` with the dropped entries zeroed, into ``out``.

    This gives the bits of a product with the scaled float mask wherever the
    scaled value is finite.
    """
    out = np.multiply(x, scale, out=out)
    out *= kept
    return out


def _drop_into(x: np.ndarray, kept: np.ndarray, out: np.ndarray, keep: float, scale,
               rng: np.random.Generator) -> np.ndarray:
    """Draw ``kept = rng.random(x.shape) < keep`` and write the dropped ``x`` into ``out``.

    ``kept`` and ``out`` are contiguous. The uniforms are drawn one block
    at a time, in the stream order of one whole draw, so the mask is the
    same without a float64 array of ``x``'s size.
    """
    xf, kf, of = x.reshape(-1), kept.reshape(-1), out.reshape(-1)
    u = np.empty(min(xf.size, _BLOCK))
    for lo, hi in _spans(xf.size):
        np.less(rng.random(out=u[:hi - lo]), keep, out=kf[lo:hi])
        _masked(xf[lo:hi], kf[lo:hi], scale, out=of[lo:hi])
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p). No-op at p<=0.

    The graph keeps the mask as bool.
    """
    if p <= 0.0:
        return x
    keep = _keep_rate(p, rng)
    scale = x.data.dtype.type(1.0 / keep)
    kept = np.empty(x.data.shape, dtype=bool)
    data = _drop_into(x.data, kept, np.empty(x.data.shape, dtype=x.data.dtype), keep, scale, rng)
    return _result(data, (x,), lambda g: (_masked(g, kept, scale),))


def _scores(q, k, bias, scale, out: np.ndarray) -> np.ndarray:
    """Scaled and biased attention scores of a block of batch entries, into ``out``."""
    np.matmul(q, k.swapaxes(-1, -2), out=out)
    out *= scale
    out += bias
    return out


def causal_self_attention(
    x: Tensor,
    qkv_w: Tensor,
    qkv_b: Tensor,
    out_w: Tensor,
    out_b: Tensor,
    n_heads: int,
    pad_mask: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Multi-head causal self-attention over [B, T, H] activations.

    ``pad_mask`` is a constant {0,1} array of shape [B, T]; padded positions
    receive zero attention weight from every query. Scores are scaled by
    sqrt(H / n_heads). Every sequence must contain at least one real
    position or the masked softmax degenerates. ``dropout_p`` > 0 needs ``rng``.

    The qkv and output projections are ``linear`` ops; everything between
    them is one graph node. It runs block by block over batch entries, about
    ``_BLOCK`` scores at a time. The node keeps the qkv array, the causal/pad
    bias (built once per call), each row's max and float64 sum, and the bool
    dropout mask. Above ``_KEEP_PROBS`` scores the [B, nh, T, T]
    probabilities never exist whole: the VJP recomputes each block's from
    those with the forward's operations, so they have the forward's bits. At
    or below it the forward writes them into one array the node keeps. The
    softmax denominator and quotient are float64, cast back into the block.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"attention input must be [B, T, H], got {x.shape}")
    batch, seq, width = x.data.shape
    if width % n_heads != 0:
        raise ConfigError(f"hidden size {width} not divisible by n_heads {n_heads}")
    if pad_mask is not None and pad_mask.shape != (batch, seq):
        raise ShapeError(f"pad_mask shape {pad_mask.shape} != ({batch}, {seq})")
    head_dim = width // n_heads
    scale = 1.0 / math.sqrt(head_dim)
    dtype = x.data.dtype

    qkv = linear(x, qkv_w, qkv_b)  # [B, T, 3H]
    # q, k and v as [B, nh, T, hd] views of qkv
    q, k, v = qkv.data.reshape(batch, seq, 3, n_heads, head_dim).transpose(2, 0, 3, 1, 4)

    allowed = np.tril(np.ones((seq, seq), dtype=bool))[None, None, :, :]
    if pad_mask is not None:
        allowed = allowed & pad_mask.astype(bool)[:, None, None, :]
    bias = np.broadcast_to(np.where(allowed, 0.0, -1e9).astype(dtype), (batch, 1, seq, seq))
    kept = keep_scale = None
    if dropout_p > 0.0:
        keep = _keep_rate(dropout_p, rng)
        kept = np.empty((batch, n_heads, seq, seq), dtype=bool)
        keep_scale = dtype.type(1.0 / keep)
    # whole batch entries per block; an entry larger than a block is one block
    per_block = max(1, _BLOCK // (n_heads * seq * seq))
    spans = list(_spans(batch, per_block))
    block_shape = (min(per_block, batch), n_heads, seq, seq)
    row_max = np.empty((batch, n_heads, seq, 1), dtype=dtype)
    row_sum = np.empty((batch, n_heads, seq, 1), dtype=np.float64)
    ctx = np.empty((batch, seq, n_heads, head_dim), dtype=dtype)
    # small probabilities are computed into one array the VJP keeps
    saved = (np.empty((batch, n_heads, seq, seq), dtype=dtype)
             if batch * n_heads * seq * seq <= _KEEP_PROBS else None)
    probs_buf = None if saved is not None else np.empty(block_shape, dtype=dtype)
    dropped_buf = None if kept is None else np.empty(block_shape, dtype=dtype)
    for lo, hi in spans:
        probs = _scores(q[lo:hi], k[lo:hi], bias[lo:hi], scale,
                        probs_buf[:hi - lo] if saved is None else saved[lo:hi])
        probs -= np.max(probs, axis=-1, keepdims=True, out=row_max[lo:hi])
        np.exp(probs, out=probs)
        denom = np.sum(probs, axis=-1, keepdims=True, dtype=np.float64, out=row_sum[lo:hi])
        np.divide(probs, denom, out=probs, dtype=np.float64)
        if kept is not None:
            probs = _drop_into(probs, kept[lo:hi], dropped_buf[:hi - lo], keep, keep_scale, rng)
        ctx[lo:hi] = (probs @ v[lo:hi]).transpose(0, 2, 1, 3)

    def vjp(g):
        g = g.reshape(batch, seq, n_heads, head_dim).transpose(0, 2, 1, 3)
        gqkv = np.zeros((batch, seq, 3, n_heads, head_dim), dtype=g.dtype)
        probs_buf = None if saved is not None else np.empty(block_shape, dtype=dtype)
        gp_buf = np.empty(block_shape, dtype=g.dtype)
        prod_buf = np.empty(block_shape, dtype=g.dtype)
        for lo, hi in spans:
            n, gb = hi - lo, g[lo:hi]
            if saved is not None:
                probs = saved[lo:hi]
            else:
                probs = _scores(q[lo:hi], k[lo:hi], bias[lo:hi], scale, probs_buf[:n])
                probs -= row_max[lo:hi]
                np.exp(probs, out=probs)
                np.divide(probs, row_sum[lo:hi], out=probs, dtype=np.float64)
            dropped = probs if kept is None else _masked(probs, kept[lo:hi], keep_scale,
                                                         out=gp_buf[:n])
            gqkv[lo:hi, :, 2] += (dropped.swapaxes(-1, -2) @ gb).transpose(0, 2, 1, 3)
            gp = np.matmul(gb, v[lo:hi].swapaxes(-1, -2), out=gp_buf[:n])
            if kept is not None:
                _masked(gp, kept[lo:hi], keep_scale, out=gp)
            # softmax VJP: probs * (gp - rowsum(gp * probs)), then the score
            # scale, written over gp
            gs = gp
            gs -= np.multiply(gp, probs, out=prod_buf[:n]).sum(axis=-1, keepdims=True)
            gs *= probs
            gs *= scale
            gqkv[lo:hi, :, 0] += (gs @ k[lo:hi]).transpose(0, 2, 1, 3)
            gk = (q[lo:hi].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
            gqkv[lo:hi, :, 1] += gk.transpose(0, 2, 1, 3)
        return (gqkv.reshape(batch, seq, 3 * width),)

    return linear(_result(ctx.reshape(batch, seq, width), (qkv,), vjp), out_w, out_b)


P_CLAMP = 1e-7


def weighted_bce(y: Tensor, coef_pos: np.ndarray, coef_neg: np.ndarray, denom: float) -> Tensor:
    """-(sum(coef_pos * log p) + sum(coef_neg * log(1 - p))) / denom as one node.

    p is (y + 1) / 2 clipped to [P_CLAMP, 1 - P_CLAMP]; y gets no gradient
    where the clip is active. The coefficients are constants of y's shape.
    Both sums accumulate in float64, so the loss is a float64 scalar. The
    node keeps y, which the tanh node that makes it keeps too; its VJP
    recomputes p, 1 - p and the inside-clip mask from y.
    """
    yd, dtype = y.data, y.data.dtype
    coef_pos, coef_neg = (np.asarray(c, dtype=dtype) for c in (coef_pos, coef_neg))
    if coef_pos.shape != yd.shape or coef_neg.shape != yd.shape:
        raise ShapeError(f"weighted_bce: coefficients {coef_pos.shape}, {coef_neg.shape} "
                         f"!= y {yd.shape}")
    lo, hi, scale = P_CLAMP, 1.0 - P_CLAMP, -1.0 / denom
    p = np.clip((yd + 1.0) * 0.5, lo, hi)
    total = (np.log(p) * coef_pos).sum(dtype=np.float64) \
        + (np.log(-p + 1.0) * coef_neg).sum(dtype=np.float64)

    def vjp(g):
        half = (yd + 1.0) * 0.5
        p = np.clip(half, lo, hi)
        g = np.full(yd.shape, float(g * scale), dtype=dtype)
        gp = g * coef_pos / p + -(g * coef_neg / (-p + 1.0))
        return (gp * ((half > lo) & (half < hi)) * 0.5,)

    return _result(np.asarray(total * scale), (y,), vjp)


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
        """Update every parameter from its ``grad`` (None counts as zeros).

        The moments are updated in place, block by block, in the operation
        order of the textbook expressions. Each new parameter is written
        into a fresh array that ``p.data`` is then rebound to: the old array
        is never written, since views of it may be held elsewhere.
        """
        if not 0.0 < lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"Adam {name}: grad shape {g.shape} != param shape {p.data.shape}")
            m, v, t = self.states.get(name) or (np.zeros(p.data.shape, dtype=p.data.dtype),
                                                np.zeros(p.data.shape, dtype=p.data.dtype), 0)
            if m.shape != p.data.shape:
                raise ShapeError(
                    f"Adam {name}: state shape {m.shape} != param shape {p.data.shape}")
            t += 1
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            new = np.empty(p.data.shape, dtype=p.data.dtype)
            pf, gf, mf, vf, nf = (a.reshape(-1) for a in (p.data, g, m, v, new))
            step_buf = np.empty(min(pf.size, _BLOCK), dtype=p.data.dtype)
            denom_buf = np.empty_like(step_buf)
            for lo, hi in _spans(pf.size):
                gb, mb, vb = gf[lo:hi], mf[lo:hi], vf[lo:hi]
                # m = b1 * m + (1 - b1) * g
                step = np.multiply(gb, 1.0 - b1, out=step_buf[:hi - lo])
                mb *= b1
                mb += step
                # v = b2 * v + (1 - b2) * (g * g)
                np.multiply(gb, gb, out=step)
                step *= 1.0 - b2
                vb *= b2
                vb += step
                # p - lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mb, c1, out=step)
                step *= lr
                denom = np.divide(vb, c2, out=denom_buf[:hi - lo])
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                np.subtract(pf[lo:hi], step, out=nf[lo:hi])
            p.data = new
            self.states[name] = (m, v, t)
