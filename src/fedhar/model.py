"""GPT-style causal transformer for multi-label sensor sequences.

Per-minute feature vectors enter through a linear projection (there is no
token vocabulary), learned positional embeddings are added, and a stack of
pre-norm attention/MLP blocks feeds a two-stage linear head whose tanh
output lands in (-1, 1) per label. Training uses a masked, per-label
weighted binary cross-entropy on p = (1 + y) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DegenerateBatchError, ShapeError
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "WeightSet",
    "default_n_heads",
    "parameter_shapes",
    "init_model",
    "forward",
    "predict",
    "masked_weighted_loss",
]

LN_EPS = 1e-5
P_CLAMP = 1e-7


def default_n_heads(hidden_size: int) -> int:
    """hidden/64 heads when that divides evenly, otherwise 4."""
    if hidden_size % 64 == 0:
        return hidden_size // 64
    return 4


@dataclass
class ModelConfig:
    n_features: int
    n_labels: int
    transformers_layers: int = 4
    hidden_size: int = 384
    n_positions: int = 128
    n_heads: int | None = None
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_heads is None:
            self.n_heads = default_n_heads(self.hidden_size)
        for name in ("n_features", "n_labels", "transformers_layers",
                     "hidden_size", "n_positions", "n_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")


def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; serialization and init both follow it."""
    F, H = config.n_features, config.hidden_size
    L, P = config.n_labels, config.n_positions
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("input_proj.w", (F, H)),
        ("input_proj.b", (H,)),
        ("pos_emb", (P, H)),
    ]
    for i in range(config.transformers_layers):
        shapes += [
            (f"block{i}.ln1.w", (H,)),
            (f"block{i}.ln1.b", (H,)),
            (f"block{i}.attn.qkv.w", (H, 3 * H)),
            (f"block{i}.attn.qkv.b", (3 * H,)),
            (f"block{i}.attn.out.w", (H, H)),
            (f"block{i}.attn.out.b", (H,)),
            (f"block{i}.ln2.w", (H,)),
            (f"block{i}.ln2.b", (H,)),
            (f"block{i}.mlp.fc.w", (H, 4 * H)),
            (f"block{i}.mlp.fc.b", (4 * H,)),
            (f"block{i}.mlp.proj.w", (4 * H, H)),
            (f"block{i}.mlp.proj.b", (H,)),
        ]
    shapes += [
        ("ln_f.gain", (H,)),
        ("ln_f.bias", (H,)),
        ("head.w", (H, H)),
        ("head.b", (H,)),
        ("out.w", (H, L)),
        ("out.b", (L,)),
    ]
    return shapes


def _is_norm_gain(name: str) -> bool:
    return name.endswith((".ln1.w", ".ln2.w")) or name == "ln_f.gain"


def _is_bias(name: str) -> bool:
    return name.endswith(".b") or name == "ln_f.bias"


@dataclass
class WeightSet:
    """All model parameters in canonical order, bound to their config.

    Training writes neither a WeightSet's tensors nor their arrays:
    ``training.train`` trains new leaf tensors over the arrays, and
    ``Adam.step`` binds each to a new array, so one WeightSet may start any
    number of trainings.
    """

    config: ModelConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def items(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def num_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def copy(self) -> "WeightSet":
        out = WeightSet(self.config)
        for name, t in self.tensors.items():
            out.tensors[name] = Tensor(t.data.copy(), requires_grad=True)
        return out

    def astype(self, dtype) -> "WeightSet":
        out = WeightSet(self.config)
        for name, t in self.tensors.items():
            out.tensors[name] = Tensor(t.data.astype(dtype), requires_grad=True)
        return out

    def equals_bitwise(self, other: "WeightSet") -> bool:
        if self.names() != other.names():
            return False
        for n in self.tensors:
            a, b = self.tensors[n].data, other.tensors[n].data
            # raw byte comparison so NaN payloads count as equal to themselves
            if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return False
        return True


def init_model(config: ModelConfig) -> WeightSet:
    """Fresh weights: matrices and pos_emb N(0, 0.02), norm gains 1, biases 0.

    Draws happen in canonical parameter order from a generator seeded with
    config.seed, so identical configs give bitwise-identical weights.
    """
    rng = np.random.default_rng(config.seed)
    ws = WeightSet(config)
    for name, shape in parameter_shapes(config):
        if _is_bias(name):
            data = np.zeros(shape, dtype=np.float32)
        elif _is_norm_gain(name):
            data = np.ones(shape, dtype=np.float32)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        ws.tensors[name] = Tensor(data, requires_grad=True)
    return ws


def forward(
    weights: WeightSet,
    x,
    pad_mask: np.ndarray | None = None,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the model on a [B, T, F] batch; returns tanh outputs [B, T, L].

    ``pad_mask`` is [B, T] with 1 for real positions. Dropout fires only in
    train mode, in which case ``rng`` must be provided.
    """
    cfg = weights.config
    w = weights.tensors
    xd = x.data if isinstance(x, Tensor) else np.asarray(x)
    if xd.ndim != 3:
        raise ShapeError(f"input must be [B, T, F], got shape {xd.shape}")
    batch, seq, feats = xd.shape
    if feats != cfg.n_features:
        raise ShapeError(f"input has {feats} features, model expects {cfg.n_features}")
    if seq > cfg.n_positions:
        raise ShapeError(f"sequence length {seq} exceeds n_positions {cfg.n_positions}")
    if train_mode and cfg.dropout > 0.0 and rng is None:
        raise ConfigError("train_mode forward with dropout needs an rng")
    if not isinstance(x, Tensor):
        x = Tensor(np.ascontiguousarray(xd, dtype=np.float32))

    drop = cfg.dropout if train_mode else 0.0
    h = T.linear(x, w["input_proj.w"], w["input_proj.b"])
    h = T.add(h, T.narrow0(w["pos_emb"], seq))
    if drop > 0.0:
        h = T.dropout(h, drop, rng)

    for i in range(cfg.transformers_layers):
        pre = T.layer_norm(h, w[f"block{i}.ln1.w"], w[f"block{i}.ln1.b"], LN_EPS)
        att = T.causal_self_attention(
            pre,
            w[f"block{i}.attn.qkv.w"], w[f"block{i}.attn.qkv.b"],
            w[f"block{i}.attn.out.w"], w[f"block{i}.attn.out.b"],
            cfg.n_heads, pad_mask, cfg.n_positions,
            dropout_p=drop, rng=rng,
        )
        h = T.add(h, att)
        pre = T.layer_norm(h, w[f"block{i}.ln2.w"], w[f"block{i}.ln2.b"], LN_EPS)
        mid = T.linear(pre, w[f"block{i}.mlp.fc.w"], w[f"block{i}.mlp.fc.b"])
        mid = T.gelu_linear(mid, w[f"block{i}.mlp.proj.w"], w[f"block{i}.mlp.proj.b"])
        if drop > 0.0:
            mid = T.dropout(mid, drop, rng)
        h = T.add(h, mid)

    h = T.layer_norm(h, w["ln_f.gain"], w["ln_f.bias"], LN_EPS)
    h = T.linear(h, w["head.w"], w["head.b"])
    y = T.linear(h, w["out.w"], w["out.b"])
    return T.tanh(y)


def predict(y) -> np.ndarray:
    """Binary decisions from tanh outputs: positive iff y > 0 (ties negative)."""
    data = y.data if isinstance(y, Tensor) else np.asarray(y)
    return (data > 0).astype(np.int8)


def masked_weighted_loss(y: Tensor, targets, label_mask, pos_weight) -> Tensor:
    """Masked weighted BCE on p = (1 + y) / 2, normalized by effective weight.

    loss = sum(mask * (pos_weight*t*(-log p) + (1-t)*(-log(1-p))))
         / sum(mask * (pos_weight*t + (1-t)))

    p is clamped to [1e-7, 1 - 1e-7]. targets/mask are {0,1} constants of
    y's shape; pos_weight is a per-label vector of finite positive weights
    broadcast over [B, T, L]. The loss is one graph node, ``T.weighted_bce``.
    """
    t = np.asarray(targets, dtype=np.float64)
    m = np.asarray(label_mask, dtype=np.float64)
    pw = np.asarray(pos_weight, dtype=np.float64)
    if t.shape != y.data.shape or m.shape != y.data.shape:
        raise ShapeError(
            f"targets {t.shape} / mask {m.shape} must match outputs {y.data.shape}")
    if pw.shape != (y.data.shape[-1],):
        raise ShapeError(
            f"pos_weight shape {pw.shape} != ({y.data.shape[-1]},)")
    if not (np.isfinite(pw).all() and (pw > 0.0).all()):
        raise ConfigError(f"pos_weight entries must be finite and > 0, got {pw}")
    if not m.any():
        raise DegenerateBatchError("loss over a fully masked batch is undefined")

    coef_pos = (pw * t * m).astype(y.data.dtype)
    coef_neg = ((1.0 - t) * m).astype(y.data.dtype)
    denom = float((m * (pw * t + (1.0 - t))).sum())

    return T.weighted_bce(y, coef_pos, coef_neg, denom, P_CLAMP)
