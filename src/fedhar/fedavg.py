"""FedAvg: example-weighted aggregation and round driving.

The base model is pretrained centrally elsewhere; this module runs the
federated fine-tuning phase, in which every client of a fold fits and is
scored in every round. One round driver, ``drive_fold``, serves both
transports: ``run_fold`` simulates them on this host, and
``wire.server_loop`` asks them over TCP. The fold's state is the
``FoldResult`` it returns, and each round is one ``_run_round`` over it.
Clients train with ``client_fit`` on either transport. In simulation a
round's fits run at once in worker processes, one per usable core, each
with its share of the BLAS threads, that take the round's clients from one
queue; the evaluations run in the calling process. Aggregation walks
clients in canonical client-id order and accumulates in float64, so the
result is independent of arrival order and a lone client (or all-identical
updates) comes back bitwise unchanged.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import AggregationError, AvailabilityError, ConfigError, FedharError
from .metrics import FoldReport, fold_summary
from .model import WeightSet
from .tensor import _BLOCK, Tensor, _spans
from .training import TrainConfig, evaluate, train
from .util import derive_seed

__all__ = [
    "FedConfig",
    "ClientUpdate",
    "FoldResult",
    "aggregate",
    "client_fit",
    "drive_fold",
    "run_fold",
]

log = logging.getLogger(__name__)


@dataclass
class FedConfig:
    """Round count, client minimum and local-training settings of a fold.

    ``min_available_clients`` is the fewest clients a fold may start with.
    ``round_timeout_s`` (TCP only; None waits forever) is one deadline per
    exchange: the server raises ``ProtocolError`` when a broadcast frame is
    not written whole to every client, or not every reply is in, that long
    after the broadcast began. ``seed``, ``local_epochs`` and ``batch_size``
    must fit the u64 and u32 fields of a ROUND_CONFIG.
    """

    rounds: int = 4
    min_available_clients: int = 12
    local_epochs: int = 2000
    batch_size: int = 64
    local_lr: float = 1e-3
    seed: int = 0
    round_timeout_s: float | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.min_available_clients < 1:
            raise ConfigError(
                f"min_available_clients must be >= 1, got {self.min_available_clients}")
        if not 1 <= self.local_epochs < 2 ** 32:
            raise ConfigError(f"local_epochs must be in [1, 2**32), got {self.local_epochs}")
        if not 1 <= self.batch_size < 2 ** 32:
            raise ConfigError(f"batch_size must be in [1, 2**32), got {self.batch_size}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if not 0.0 < self.local_lr < math.inf:
            raise ConfigError(f"local_lr must be positive and finite, got {self.local_lr}")
        if self.round_timeout_s is not None and not 0.0 < self.round_timeout_s < math.inf:
            raise ConfigError(
                f"round_timeout_s must be positive and finite, got {self.round_timeout_s}")


@dataclass
class ClientUpdate:
    client_id: str
    weights: WeightSet
    num_examples: int
    train_loss: float


@dataclass
class FoldResult:
    """One fold's state while ``drive_fold`` runs it, then everything it produced.

    ``member_ids`` are the clients still in the fold, in id order.
    ``final_weights`` holds the global weights throughout: the base weights
    themselves before round 1, then each round's aggregate. The rounds run
    so far are ``len(round_reports)``. ``worker_blas_threads`` has one entry
    per worker process that ``run_fold`` fitted the clients in: the BLAS
    thread count that worker started with (None without numpy's OpenBLAS).
    It stays empty over TCP.
    """

    fold: int
    base_report: FoldReport | None
    round_reports: list[FoldReport] = field(default_factory=list)
    final_weights: WeightSet | None = None
    worker_blas_threads: list[int | None] = field(default_factory=list)
    member_ids: list[str] = field(default_factory=list)

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


def aggregate(updates: list[ClientUpdate]) -> WeightSet:
    """Example-weighted mean of client weights, in canonical client order.

    Accumulation is float64 and the division happens once at the end, so
    identical inputs are a fixed point and a single client round-trips
    bitwise. Each parameter is summed in one pass over blocks of ``_BLOCK``
    elements, with the bits of the whole-array expression. A NaN or infinite
    update raises ``AggregationError`` naming its client and parameter (the
    first of each, in order), rather than poisoning the global model, and so
    does a client id that comes twice.
    """
    if not updates:
        raise AggregationError("aggregate needs at least one client update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    for a, b in zip(ordered, ordered[1:]):
        if a.client_id == b.client_id:
            raise AggregationError(f"client {a.client_id} sent more than one update")
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
    with np.errstate(invalid="ignore"):  # inf + -inf, which is reported below
        for name in names:
            flats = [u.weights[name].data.reshape(-1) for u in ordered]
            mean = np.empty(ref.weights[name].data.shape, dtype=np.float32)
            acc = np.empty(min(mean.size, _BLOCK))
            term = np.empty_like(acc)
            for lo, hi in _spans(mean.size):
                # 0 + n0 * x0 + n1 * x1 + ..., rounded as the whole-array float64
                # expression is: +0 turns a leading -0.0 product into +0.0
                a = np.multiply(flats[0][lo:hi], float(ref.num_examples), out=acc[:hi - lo],
                                dtype=np.float64)
                a += 0.0
                for u, flat in zip(ordered[1:], flats[1:]):
                    a += np.multiply(flat[lo:hi], float(u.num_examples), out=term[:hi - lo],
                                     dtype=np.float64)
                # products of float32 values cannot overflow a float64 sum, so the
                # block is finite exactly when every client's block is
                if not np.isfinite(a).all():
                    _raise_non_finite(ordered, name)
                a /= total
                mean.reshape(-1)[lo:hi] = a
            out.tensors[name] = Tensor(mean, requires_grad=True)
    return out


def _raise_non_finite(ordered: list[ClientUpdate], name: str) -> None:
    for u in ordered:
        if not np.isfinite(u.weights[name].data).all():
            raise AggregationError(
                f"client {u.client_id} parameter {name} has non-finite values")


def client_fit(
    global_weights: WeightSet,
    train_windows,
    config: FedConfig,
    client_id: str,
    fold: int,
    round_idx: int,
) -> ClientUpdate:
    """Local fine-tuning from the broadcast weights with a fresh optimizer.

    The local RNG stream is derived from (seed, fold, client_id, round), so
    simulation and live transport train identically.
    """
    tc = TrainConfig(
        epochs=config.local_epochs,
        learning_rate=config.local_lr,
        batch_size=config.batch_size,
        seed=derive_seed(config.seed, fold, client_id, round_idx),
    )
    trained, history = train(global_weights, train_windows, tc)
    return ClientUpdate(
        client_id=client_id,
        weights=trained,
        num_examples=len(train_windows),
        train_loss=history[-1],
    )


def _audit(audit, **event):
    if audit is not None:
        audit({"ts": time.time(), **event})


def drive_fold(fold: int, num_examples: dict, fit, evaluate_clients,
               base_weights: WeightSet, config: FedConfig, audit=None,
               eval_base: bool = True) -> FoldResult:
    """Drive all rounds of one fold over any transport.

    ``num_examples`` maps each client id to its training-window count. Fewer
    than ``config.min_available_clients`` clients, or no client with a
    training window, raise ``AvailabilityError`` before any client is asked
    anything. Each round, ``fit(weights, round_idx, ids)`` and then
    ``evaluate_clients(weights, round_idx, ids)`` yield ``(client_id,
    result)``, a ClientUpdate and a ClientReport, in client-id order.
    Aggregation, fold summaries and audit events happen here. A client with
    no training windows is skipped (a ``skip`` event right after
    ``broadcast``) and never reaches ``fit``; every client is evaluated.
    ``eval_base`` first evaluates the base weights as round 0; with it, every
    fit starts from the weights the eval phase before it scored, which
    ``wire.server_loop`` relies on. Neither phase may write the weights it
    is given: the fold starts from ``base_weights`` itself.
    """
    ids = sorted(num_examples)
    if len(ids) < config.min_available_clients:
        raise AvailabilityError(
            f"{len(ids)} clients available, {config.min_available_clients} required")
    if max(num_examples.values()) < 1:
        raise AvailabilityError(f"fold {fold}: no client has a training window")
    state = FoldResult(fold, None, final_weights=base_weights, member_ids=ids)
    state.base_report = _eval_phase(state, 0, evaluate_clients, audit) if eval_base else None
    for _ in range(config.rounds):
        _run_round(state, num_examples, fit, evaluate_clients, audit)
    return state


def _run_round(state: FoldResult, num_examples: dict, fit, evaluate_clients, audit) -> None:
    """The next round of ``state``'s fold: broadcast, fits, aggregate, evals."""
    fold, ids, round_idx = state.fold, state.member_ids, len(state.round_reports) + 1
    _audit(audit, fold=fold, round=round_idx, event="broadcast", n_clients=len(ids))
    for cid in ids:
        if num_examples[cid] < 1:
            log.warning("fold %d round %d: client %s has no data, skipped",
                        fold, round_idx, cid)
            _audit(audit, fold=fold, round=round_idx, event="skip", client_id=cid)
    updates = []
    for cid, update in fit(state.final_weights, round_idx,
                           [cid for cid in ids if num_examples[cid] >= 1]):
        _audit(audit, fold=fold, round=round_idx, event="fit_result", client_id=cid,
               num_examples=update.num_examples, train_loss=update.train_loss)
        updates.append(update)
    state.final_weights = aggregate(updates)
    _audit(audit, fold=fold, round=round_idx, event="aggregate", n_updates=len(updates))
    state.round_reports.append(_eval_phase(state, round_idx, evaluate_clients, audit))


def _eval_phase(state: FoldResult, round_idx: int, evaluate_clients, audit) -> FoldReport:
    """Score ``state``'s weights on every member: round ``round_idx``'s FoldReport."""
    reports = []
    for cid, rep in evaluate_clients(state.final_weights, round_idx, state.member_ids):
        _audit(audit, fold=state.fold, round=round_idx, event="eval_result",
               client_id=cid, mean_ba=rep.mean_ba)
        reports.append(rep)
    return fold_summary(reports, state.fold)


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
    runs the rounds. Each round queues its clients in id order for the
    worker processes (``_Workers``), and ``evaluate`` runs in this process.
    A fit that raises ends the fold with its exception, once the clients
    before it in id order are filed. Every worker has exited before this
    returns or raises.
    """
    workers = _Workers(clients, config, fold)

    def evaluate_clients(weights, round_idx, eval_ids):
        for cid in eval_ids:
            yield cid, evaluate(weights, clients[cid][1], cid, label_names)

    try:
        result = drive_fold(fold, {cid: len(train) for cid, (train, _test) in clients.items()},
                            workers.fit, evaluate_clients, base_weights, config,
                            audit=audit, eval_base=eval_base)
    finally:
        workers.close()
    result.worker_blas_threads = workers.blas_threads
    return result


# what a worker process runs; the parent's sys.path reaches it as PYTHONPATH,
# and an empty entry (the working directory) is dropped so that it cannot
# shadow the parent's fedhar
_WORKER_MAIN = ("import sys; sys.path[:] = [p for p in sys.path if p]; "
                "from fedhar.fedavg import _worker_main; _worker_main()")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Workers:
    """The worker processes that fit one fold's clients for ``run_fold``.

    They start at the fold's first fit, so a fold that ``drive_fold``
    refuses starts none: ``min(usable cores, clients to fit)`` processes of
    this interpreter, each with ``OPENBLAS_NUM_THREADS`` set to its share of
    this process's starting BLAS threads (``tensor._share_threads``). A
    worker gets the config and this process's numpy error state once. Each
    round, ``fit`` queues the clients in id order and gives the next one to
    whichever worker is free; a task carries that client's training windows,
    and a worker's first task of a round also carries the broadcast weights,
    pickled once per round. Tasks and replies are pickles over the worker's
    stdin and stdout. A worker keeps no client between tasks: it runs the
    unchanged ``client_fit`` and replies with the update or the exception
    with its traceback, plus any warnings, which are issued here. At most
    one task per worker is outstanding, so neither pipe fills while its
    reader waits. ``fit`` yields the replies in client-id order. ``close``
    ends every worker on every path: stdin is closed, which an idle worker
    reads as its cue to exit, a worker with a task outstanding is killed,
    and each is waited for. A worker starts no process of its own; that is
    why these are plain subprocesses and not a ``multiprocessing`` pool,
    whose resource tracker (or fork server) outlives the pool until this
    process exits.
    """

    def __init__(self, clients: dict, config: FedConfig, fold: int):
        self.clients, self.config, self.fold = clients, config, fold
        self.procs: list[subprocess.Popen] = []
        self.running: dict[int, tuple[subprocess.Popen, str]] = {}  # stdout fd -> (worker, client)
        self.blas_threads: list[int | None] = []

    def _start(self, n: int) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p or os.getcwd() for p in sys.path))
        if tensor._blas_start is not None:
            env["OPENBLAS_NUM_THREADS"] = str(tensor._share_threads(n))
        for _ in range(n):  # one at a time, so that close() ends those started if one fails
            self.procs.append(subprocess.Popen([sys.executable, "-c", _WORKER_MAIN], env=env,
                                               stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        for proc in self.procs:
            self._send(proc, (self.config, self.fold, np.geterr()))
        self.blas_threads = [self._receive(proc, "start") for proc in self.procs]

    def _send(self, proc: subprocess.Popen, task, blob: bytes = b"") -> None:
        try:
            proc.stdin.write(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
            proc.stdin.write(blob)
            proc.stdin.flush()
        except BrokenPipeError:
            raise FedharError(f"client worker {proc.pid} exited early") from None

    def _receive(self, proc: subprocess.Popen, what: str):
        try:
            return pickle.load(proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise FedharError(f"client worker {proc.pid} exited during {what}") from None

    def fit(self, weights: WeightSet, round_idx: int, fit_ids: list[str]):
        """``drive_fold``'s fit: (client_id, ClientUpdate) pairs in id order."""
        if fit_ids and not self.procs:
            self._start(min(_usable_cores(), len(fit_ids)))
        blob = pickle.dumps(weights, pickle.HIGHEST_PROTOCOL)
        queue = iter(fit_ids)

        def give(proc, first):
            cid = next(queue, None)
            if cid is not None:
                self.running[proc.stdout.fileno()] = proc, cid
                self._send(proc, (round_idx, cid, self.clients[cid][0], first),
                           blob if first else b"")

        for proc in self.procs:
            give(proc, True)
        done = {}
        for cid in fit_ids:
            while cid not in done:
                ready, _, _ = select.select(list(self.running), [], [])
                for fd in ready:
                    proc, got = self.running[fd]
                    done[got] = self._receive(proc, f"the fit of client {got}")
                    del self.running[fd]
                    give(proc, False)
            ok, value, caught = done.pop(cid)
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            if not ok:
                exc, where = value
                raise exc from _WorkerTraceback(where)
            yield cid, value

    def close(self) -> None:
        for proc, _cid in self.running.values():
            proc.kill()
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()


class _WorkerTraceback(Exception):
    """The worker's traceback of a fit's exception, chained as its cause."""

    def __str__(self):
        return self.args[0]


def _worker_main() -> None:
    """The loop of one ``_Workers`` process: fit clients until stdin ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends its workers
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into the replies
    tasks = sys.stdin.buffer

    def reply(value) -> None:
        replies.write(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
        replies.flush()

    config, fold, errstate = pickle.load(tasks)
    reply(tensor._blas_start)
    while True:
        try:
            round_idx, cid, windows, new_weights = pickle.load(tasks)
        except EOFError:
            return
        if new_weights:
            weights = pickle.load(tasks)
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
            warnings.simplefilter("default")
            try:
                outcome = True, client_fit(weights, windows, config, cid, fold, round_idx)
            except Exception as exc:  # raised by the parent in client-id order
                outcome = False, (exc, traceback.format_exc())
        reply((*outcome, [(str(w.message), w.category, w.filename, w.lineno)
                          for w in caught]))
        del outcome, windows  # hold no client while the next task is read
