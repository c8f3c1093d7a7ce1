"""FedAvg: client selection, example-weighted aggregation, round driving.

The base model is pretrained centrally elsewhere; this module runs the
federated fine-tuning phase. One round driver, ``drive_fold``, serves both
transports: ``run_fold`` trains and evaluates the clients in process, and
``wire.server_loop`` asks them over TCP. Clients train with ``client_fit``
on either transport. Aggregation walks clients in canonical client-id order
and accumulates in float64, so the result is independent of arrival order
and a lone client (or all-identical updates) comes back bitwise unchanged.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AggregationError, AvailabilityError, ConfigError
from .metrics import FoldReport, fold_summary
from .model import WeightSet
from .tensor import Tensor
from .training import TrainConfig, evaluate, train
from .util import derive_seed

__all__ = [
    "FedConfig",
    "ClientUpdate",
    "FoldResult",
    "select_clients",
    "aggregate",
    "client_fit",
    "drive_fold",
    "run_fold",
    "run_cross_validation",
]

log = logging.getLogger(__name__)


@dataclass
class FedConfig:
    rounds: int = 4
    fit_fraction: float = 1.0
    eval_fraction: float = 1.0
    min_available_clients: int = 12
    local_epochs: int = 2000
    batch_size: int = 64
    local_lr: float = 1e-3
    seed: int = 0
    round_timeout_s: float | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        for name in ("fit_fraction", "eval_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        if self.min_available_clients < 1:
            raise ConfigError(
                f"min_available_clients must be >= 1, got {self.min_available_clients}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.local_lr <= 0.0:
            raise ConfigError(f"local_lr must be positive, got {self.local_lr}")


@dataclass
class ClientUpdate:
    client_id: str
    weights: WeightSet
    num_examples: int
    train_loss: float


@dataclass
class FoldResult:
    """Everything one fold produced: base eval, per-round evals, final weights."""

    fold: int
    base_report: FoldReport | None
    round_reports: list[FoldReport] = field(default_factory=list)
    final_weights: WeightSet | None = None

    @property
    def final_report(self) -> FoldReport:
        return self.round_reports[-1]

    def to_json_dict(self) -> dict:
        return {
            "fold": self.fold,
            "base": self.base_report.to_json_dict() if self.base_report else None,
            "rounds": [r.to_json_dict() for r in self.round_reports],
            "final": self.final_report.to_json_dict(),
        }


def select_clients(available, fraction: float, min_available: int,
                   seed: int, round_idx: int) -> list[str]:
    """Seeded shuffle, take ceil(fraction * n), return in client-id order."""
    ids = sorted(available)
    if len(ids) != len(set(ids)):
        raise ConfigError("duplicate client ids")
    if len(ids) < min_available:
        raise AvailabilityError(
            f"{len(ids)} clients available, {min_available} required")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"selection fraction must be in (0, 1], got {fraction}")
    k = int(np.ceil(fraction * len(ids)))
    rng = np.random.default_rng(derive_seed(seed, "select", round_idx))
    perm = rng.permutation(len(ids))
    return sorted(ids[i] for i in perm[:k])


def aggregate(updates: list[ClientUpdate]) -> WeightSet:
    """Example-weighted mean of client weights, in canonical client order.

    Accumulation is float64 and the division happens once at the end, so
    identical inputs are a fixed point and a single client round-trips
    bitwise.
    """
    if not updates:
        raise AggregationError("aggregate needs at least one client update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ref = ordered[0]
    names = ref.weights.names()
    for u in ordered:
        if u.num_examples < 1:
            raise AggregationError(
                f"client {u.client_id} reports {u.num_examples} examples")
        if u.weights.names() != names:
            raise AggregationError(
                f"client {u.client_id} parameter names do not match client "
                f"{ref.client_id}")
        for name in names:
            if u.weights[name].data.shape != ref.weights[name].data.shape:
                raise AggregationError(
                    f"client {u.client_id} parameter {name} has shape "
                    f"{u.weights[name].data.shape}, expected "
                    f"{ref.weights[name].data.shape}")

    total = float(sum(u.num_examples for u in ordered))
    out = WeightSet(ref.weights.config)
    for name in names:
        acc = np.zeros(ref.weights[name].data.shape, dtype=np.float64)
        for u in ordered:
            acc += float(u.num_examples) * u.weights[name].data.astype(np.float64)
        out.tensors[name] = Tensor((acc / total).astype(np.float32), requires_grad=True)
    return out


def client_fit(
    global_weights: WeightSet,
    train_windows,
    config: FedConfig,
    client_id: str,
    fold: int,
    round_idx: int,
    pos_weight: np.ndarray | None = None,
) -> ClientUpdate:
    """Local fine-tuning from the broadcast weights with a fresh optimizer.

    The local RNG stream is derived from (seed, fold, client_id, round), so
    simulation and live transport train identically.
    """
    if not train_windows:
        raise ConfigError(f"client {client_id} has no training windows")
    tc = TrainConfig(
        epochs=config.local_epochs,
        learning_rate=config.local_lr,
        batch_size=config.batch_size,
        seed=derive_seed(config.seed, fold, client_id, round_idx),
    )
    trained, history = train(global_weights, train_windows, tc, pos_weight)
    return ClientUpdate(
        client_id=client_id,
        weights=trained,
        num_examples=len(train_windows),
        train_loss=history[-1],
    )


def _audit(audit, **event):
    if audit is not None:
        audit({"ts": time.time(), **event})


def drive_fold(fold: int, ids, fit, evaluate_clients, base_weights: WeightSet,
               config: FedConfig, audit=None, eval_base: bool = True) -> FoldResult:
    """Drive all rounds of one fold over any transport.

    ``fit(weights, round_idx, ids)`` and ``evaluate_clients(weights,
    round_idx, ids)`` yield ``(client_id, result)`` in the order of ``ids``:
    a ClientUpdate (None for a client without training windows) and a
    ClientReport. Selection, aggregation, fold summaries and audit events
    happen here. ``eval_base`` first evaluates the base weights as round 0.
    """
    ids = sorted(ids)
    result = FoldResult(fold=fold, base_report=None)

    def eval_phase(weights, round_idx, eval_ids):
        reports = []
        for cid, rep in evaluate_clients(weights, round_idx, eval_ids):
            _audit(audit, fold=fold, round=round_idx, event="eval_result",
                   client_id=cid, mean_ba=rep.mean_ba)
            reports.append(rep)
        return fold_summary(reports, fold)

    weights = base_weights.copy()
    if eval_base:
        result.base_report = eval_phase(weights, 0, ids)

    for round_idx in range(1, config.rounds + 1):
        fit_ids = select_clients(ids, config.fit_fraction,
                                 config.min_available_clients, config.seed, round_idx)
        _audit(audit, fold=fold, round=round_idx, event="broadcast",
               n_clients=len(fit_ids))
        updates = []
        for cid, update in fit(weights, round_idx, fit_ids):
            if update is None:
                log.warning("fold %d round %d: client %s has no data, skipped",
                            fold, round_idx, cid)
                _audit(audit, fold=fold, round=round_idx, event="skip", client_id=cid)
                continue
            _audit(audit, fold=fold, round=round_idx, event="fit_result",
                   client_id=cid, num_examples=update.num_examples)
            updates.append(update)
        weights = aggregate(updates)
        _audit(audit, fold=fold, round=round_idx, event="aggregate",
               n_updates=len(updates))

        eval_ids = select_clients(ids, config.eval_fraction,
                                  config.min_available_clients,
                                  derive_seed(config.seed, "eval"), round_idx)
        result.round_reports.append(eval_phase(weights, round_idx, eval_ids))

    result.final_weights = weights
    return result


def run_fold(
    fold: int,
    clients: dict,
    base_weights: WeightSet,
    config: FedConfig,
    audit=None,
    label_names: list[str] | None = None,
    eval_base: bool = True,
) -> FoldResult:
    """Drive all rounds for one fold in simulation mode.

    ``clients`` maps client_id -> (train_windows, test_windows); ``drive_fold``
    runs the rounds, with ``client_fit`` and ``evaluate`` called in process.
    """
    def fit(weights, round_idx, fit_ids):
        for cid in fit_ids:
            train_w = clients[cid][0]
            yield cid, (client_fit(weights, train_w, config, cid, fold, round_idx)
                        if train_w else None)

    def evaluate_clients(weights, round_idx, eval_ids):
        for cid in eval_ids:
            yield cid, evaluate(weights, clients[cid][1], cid, label_names)

    return drive_fold(fold, clients, fit, evaluate_clients, base_weights, config,
                      audit=audit, eval_base=eval_base)


def run_cross_validation(
    fold_plan,
    data_for_fold,
    base_weights_for_fold,
    config: FedConfig,
    audit=None,
    label_names: list[str] | None = None,
    folds: list[int] | None = None,
) -> list[FoldResult]:
    """Run every fold: init from its base checkpoint, federate its clients.

    ``data_for_fold(k)`` returns the client dict for fold k;
    ``base_weights_for_fold`` is a dict or callable giving fold k's base
    WeightSet. All base weights are resolved up front so a missing
    checkpoint fails before any round starts.
    """
    if folds is None:
        folds = list(range(fold_plan.n_folds))
    getter = (base_weights_for_fold if callable(base_weights_for_fold)
              else base_weights_for_fold.__getitem__)
    base = {}
    for k in folds:
        try:
            base[k] = getter(k)
        except (KeyError, FileNotFoundError, OSError) as exc:
            raise ConfigError(f"missing base checkpoint for fold {k}: {exc}") from exc

    results = []
    for k in folds:
        log.info("fold %d: starting %d federated rounds", k, config.rounds)
        results.append(run_fold(k, data_for_fold(k), base[k], config,
                                audit=audit, label_names=label_names))
    return results
