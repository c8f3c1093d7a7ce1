"""Centralized training, evaluation, and random hyperparameter search."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Windows, carve_validation, make_windows, split_train_test
from .errors import ConfigError, DegenerateReportError, DivergenceError
from .metrics import ClientReport, _count
from .model import (ModelConfig, WeightSet, forward, init_model,
                    masked_weighted_loss, predict)
from .tensor import Adam, Tensor, backward
from .util import derive_seed

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "compute_pos_weight",
    "train",
    "evaluate",
    "SearchSpace",
    "Trial",
    "random_search",
]

POS_WEIGHT_CLAMP = (0.1, 100.0)
EVAL_BATCH = 64


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")


def compute_pos_weight(windows: Windows) -> np.ndarray:
    """Per-label negatives/positives ratio over unmasked training instances.

    Labels with no positives (ratio would blow up) or no negatives clamp to
    ``POS_WEIGHT_CLAMP``, [0.1, 100].
    """
    if not windows:
        raise ConfigError("pos_weight needs at least one window")
    lo, hi = POS_WEIGHT_CLAMP
    m, t = windows.label_mask, windows.targets
    pos = np.count_nonzero(m & t, axis=(0, 1))
    neg = np.count_nonzero(m & ~t, axis=(0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pos > 0, neg / np.maximum(pos, 1e-300), hi)
    return np.clip(ratio, lo, hi).astype(np.float32)


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train(
    weights: WeightSet,
    windows: Windows,
    config: TrainConfig,
) -> tuple[WeightSet, list[float]]:
    """Adam-train from the weights; returns (trained weights, loss history).

    Pure in (initial weights, windows, config): the input WeightSet is left
    untouched, shuffling and dropout draw from generators derived from
    config.seed, and history holds one mean batch loss per epoch. Training
    starts from new leaf tensors over the input's arrays, not a copy of
    them, and ``Adam.step`` binds each to a new array, so the trained
    weights share no memory with the input and carry no gradients. A step
    holds one graph: ``backward`` frees each node's arrays as it consumes
    them, and the gradients are cleared right after ``Adam.step`` reads
    them, so each forward runs beside the weights and Adam's moments only.
    The first NaN or infinite batch loss raises ``DivergenceError`` naming its
    epoch and batch (both from 1), before its backward pass. The bits do not
    depend on the BLAS thread count (``tensor._BlasShare``).
    """
    if not windows:
        raise ConfigError("training needs at least one window")
    w = WeightSet(weights.config, {name: Tensor(t.data, requires_grad=True)
                                   for name, t in weights.items()})
    pos_weight = compute_pos_weight(windows)
    if windows.features.shape[-1] != w.config.n_features:
        raise ConfigError(f"windows have {windows.features.shape[-1]} features, "
                          f"model expects {w.config.n_features}")

    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    drop_rng = np.random.default_rng(derive_seed(config.seed, "dropout"))
    opt = Adam()
    n = len(windows)
    history: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        losses = []
        for batch, idx in enumerate(_batches(n, config.batch_size, order), start=1):
            ws = windows[idx]
            y = forward(w, ws.features, ws.pad_mask, train_mode=True, rng=drop_rng)
            loss = masked_weighted_loss(y, ws.targets, ws.label_mask, pos_weight)
            losses.append(loss.item())
            if not math.isfinite(losses[-1]):
                raise DivergenceError(
                    f"training loss is {losses[-1]} at epoch {epoch}, batch {batch}")
            backward(loss)  # frees the graph's arrays node by node
            del y, loss
            opt.step(w.tensors, config.learning_rate)
            w.zero_grads()  # no gradient lives through the next forward
        history.append(float(np.mean(losses)))
    return w, history


def evaluate(
    weights: WeightSet,
    test_windows: Windows,
    subject_id: str | None = None,
    label_names: list[str] | None = None,
) -> ClientReport:
    """Deterministic eval-mode pass; per-label confusion over unmasked cells."""
    if subject_id is None:
        ids = np.unique(test_windows.subject_ids).tolist()
        subject_id = ids[0] if len(ids) == 1 else "pooled"
    if not test_windows:
        raise DegenerateReportError(f"subject {subject_id}: evaluation needs at least one window")
    # no-grad tensors over the same arrays: the forward builds no graph
    frozen = WeightSet(weights.config, {n: Tensor(t.data) for n, t in weights.items()})
    pred = np.empty(test_windows.targets.shape, dtype=bool)
    for start in range(0, len(test_windows), EVAL_BATCH):
        sl = slice(start, start + EVAL_BATCH)
        ws = test_windows[sl]
        pred[sl] = predict(forward(frozen, ws.features, ws.pad_mask, train_mode=False))
    counts = _count(pred, test_windows.targets, test_windows.label_mask)
    return ClientReport.from_counts(subject_id, counts, label_names)


@dataclass
class SearchSpace:
    """The hyperparameter grid plus a log-uniform learning-rate range."""

    layers_choices: tuple = (1, 2, 3, 4, 6, 12)
    hidden_choices: tuple = (48, 96, 192, 384, 768)
    n_positions_choices: tuple = (32, 64, 128, 256)
    lr_low: float = 1e-5
    lr_high: float = 1e-1

    def sample(self, rng: np.random.Generator) -> dict:
        return {
            "transformers_layers": int(rng.choice(self.layers_choices)),
            "hidden_size": int(rng.choice(self.hidden_choices)),
            "n_positions": int(rng.choice(self.n_positions_choices)),
            "learning_rate": float(10.0 ** rng.uniform(np.log10(self.lr_low),
                                                       np.log10(self.lr_high))),
        }


@dataclass
class Trial:
    index: int
    params: dict
    val_mean_ba: float | None
    history: list[float]
    wall_ms: float

    def to_json_dict(self) -> dict:
        return {"trial": self.index, "params": self.params,
                "val_mean_ba": self.val_mean_ba, "epochs": len(self.history),
                "final_loss": self.history[-1] if self.history else None,
                "wall_ms": self.wall_ms}


def random_search(
    space: SearchSpace,
    budget: int,
    records,
    seed: int,
    epochs: int = 50,
    batch_size: int = 64,
    on_trial=None,
) -> tuple[Trial | None, list[Trial]]:
    """Sample ``budget`` configs, train each, score on carved-out validation.

    ``records`` are standardized SubjectRecords. Every trial rebuilds its
    windows (n_positions is part of the sample), trains from a fresh init
    with its own derived seed, and is scored by pooled validation mean BA.
    Ties on the best score go to the earliest trial; trials whose validation
    has no defined label, or whose training diverged, score None and never win.
    """
    if budget < 1:
        raise ConfigError(f"search budget must be >= 1, got {budget}")
    if not records:
        raise ConfigError("random search needs at least one record")
    n_features = records[0].features.shape[1]
    n_labels = records[0].labels.shape[1]
    label_names = records[0].label_names

    sample_rng = np.random.default_rng(derive_seed(seed, "search"))
    samples = [space.sample(sample_rng) for _ in range(budget)]

    trials: list[Trial] = []
    best: Trial | None = None
    for i, params in enumerate(samples):
        t0 = time.monotonic()
        mc = ModelConfig(
            n_features=n_features,
            n_labels=n_labels,
            transformers_layers=params["transformers_layers"],
            hidden_size=params["hidden_size"],
            n_positions=params["n_positions"],
            dropout=0.1,
            seed=derive_seed(seed, "init", i),
        )
        train_w, _ = split_train_test([make_windows(rec, mc.n_positions) for rec in records],
                                      seed=derive_seed(seed, "split"))
        fit_w, val_w = carve_validation(train_w)
        # a trial that cannot be scored fails, not the search
        score, history = None, []
        if not fit_w or not val_w:  # n_positions too large for this corpus
            log.warning("trial %d: no validation windows at n_positions=%d",
                        i, mc.n_positions)
        else:
            tc = TrainConfig(epochs=epochs, learning_rate=params["learning_rate"],
                             batch_size=batch_size, seed=derive_seed(seed, "trial", i))
            try:
                trained, history = train(init_model(mc), fit_w, tc)
                score = evaluate(trained, val_w, subject_id="validation",
                                 label_names=label_names).mean_ba
            except DivergenceError as exc:  # a learning rate too large for this config
                log.warning("trial %d: %s", i, exc)
            except DegenerateReportError:
                pass
        trial = Trial(i, params, score, history, (time.monotonic() - t0) * 1e3)
        trials.append(trial)
        if score is not None and (best is None or score > best.val_mean_ba):
            best = trial
        if on_trial is not None:
            on_trial(trial)
    return best, trials
