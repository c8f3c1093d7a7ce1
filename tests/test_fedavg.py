"""FedAvg: aggregation math, local client fits, and the round driver."""

import dataclasses
import glob
import json
import math

import numpy as np
import pytest

import fedhar.data as D
import fedhar.fedavg as fedavg
from fedhar.errors import (AggregationError, AvailabilityError, ConfigError,
                           DegenerateReportError, DivergenceError)
from fedhar.fedavg import (ClientUpdate, FedConfig, aggregate, client_fit, drive_fold,
                           run_fold)
from fedhar.metrics import ClientReport, ConfusionCounts
from fedhar.model import ModelConfig, WeightSet, init_model, parameter_shapes
from fedhar.tensor import Tensor
from fedhar.training import TrainConfig, evaluate, train
from fedhar.util import append_jsonl, atomic_write_json

MC = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                 hidden_size=8, n_positions=8, dropout=0.1, seed=0)


def weight_set(fill, config=MC):
    ws = WeightSet(config)
    for name, shape in parameter_shapes(config):
        ws.tensors[name] = Tensor(np.full(shape, fill, dtype=np.float32),
                                  requires_grad=True)
    return ws


def update(cid, fill, n):
    return ClientUpdate(cid, weight_set(fill), n, 0.0)


def client_data(n_subjects=4, minutes=64, seed=1):
    spec = D.SyntheticSpec(n_subjects=n_subjects, minutes_per_subject=minutes,
                           n_features=6, n_labels=3, alpha=0.5, seed=seed)
    recs = D.gen_synthetic(spec)
    st = D.fit_standardizer(recs)
    clients = {}
    for rec in recs:
        ws = D.make_windows(D.apply_standardizer(rec, st), 8)
        clients[rec.subject_id] = D.split_train_test(ws, 0.8, seed=0)
    return clients


# ----------------------------------------------------------- aggregate

def test_aggregate_weighted_mean_hand_case():
    # (1*0 + 3*4) / 4 = 3.0 in every element
    out = aggregate([update("a", 0.0, 1), update("b", 4.0, 3)])
    for name in out.names():
        assert np.all(out[name].data == 3.0)


def test_aggregate_identical_weights_fixed_point_bitwise():
    rng = np.random.default_rng(0)
    ws = WeightSet(MC)
    for name, shape in parameter_shapes(MC):
        ws.tensors[name] = Tensor(
            rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    out = aggregate([ClientUpdate("a", ws.copy(), 5, 0.0),
                     ClientUpdate("b", ws.copy(), 17, 0.0),
                     ClientUpdate("c", ws.copy(), 1, 0.0)])
    assert out.equals_bitwise(ws)


def test_aggregate_single_client_identity_bitwise():
    w = init_model(MC)
    out = aggregate([ClientUpdate("only", w.copy(), 123, 0.0)])
    assert out.equals_bitwise(w)


def test_aggregate_order_invariant():
    ups = [update("a", 1.0, 2), update("b", 2.0, 5), update("c", -1.0, 3)]
    fwd = aggregate(ups)
    rev = aggregate(list(reversed(ups)))
    assert fwd.equals_bitwise(rev)


def test_aggregate_matches_float64_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        ns = rng.integers(1, 1000, k)
        sets, ups = [], []
        for i in range(k):
            ws = WeightSet(MC)
            for name, shape in parameter_shapes(MC):
                ws.tensors[name] = Tensor(
                    rng.standard_normal(shape).astype(np.float32))
            sets.append(ws)
            ups.append(ClientUpdate(f"c{i}", ws, int(ns[i]), 0.0))
        got = aggregate(ups)
        for name in got.names():
            want = sum(float(n) * s[name].data.astype(np.float64)
                       for n, s in zip(ns, sets)) / float(ns.sum())
            assert np.max(np.abs(got[name].data - want)) <= 1e-6


# mlp.fc.w and mlp.proj.w hold 36864 elements: one full block and part of a second
WIDE = ModelConfig(n_features=6, n_labels=3, transformers_layers=1, hidden_size=96,
                   n_positions=8, seed=0)


def random_updates(counts, config=WIDE, seed=3):
    rng = np.random.default_rng(seed)
    ups = []
    for cid, n in counts.items():
        ws = WeightSet(config)
        for name, shape in parameter_shapes(config):
            ws.tensors[name] = Tensor(rng.standard_normal(shape).astype(np.float32))
        ups.append(ClientUpdate(cid, ws, n, 0.0))
    return ups


def test_aggregate_bitwise_equals_the_whole_array_expression():
    ups = random_updates({"c": 7, "a": 1, "b": 250})
    fc = ups[0].weights["block0.mlp.fc.w"].data.reshape(-1)
    assert fc.size > fedavg._BLOCK
    for i, u in enumerate(ups):
        flat = u.weights["block0.mlp.fc.w"].data.reshape(-1)
        flat[::5] = -0.0  # every client: the sum is +0.0 there
        flat[i::7] = -0.0
        flat[fedavg._BLOCK - 1:fedavg._BLOCK + 1] = -0.0
    got = aggregate(ups)
    ordered = sorted(ups, key=lambda u: u.client_id)
    total = float(sum(u.num_examples for u in ordered))
    for name in got.names():
        acc = np.zeros(ordered[0].weights[name].data.shape, dtype=np.float64)
        for u in ordered:
            acc += float(u.num_examples) * u.weights[name].data.astype(np.float64)
        want = (acc / total).astype(np.float32)
        assert got[name].data.tobytes() == want.tobytes(), name
    assert not np.signbit(got["block0.mlp.fc.w"].data.reshape(-1)[::5]).any()


@pytest.mark.parametrize("poison, culprit", [
    # b's inf (second block of fc.w) comes before a's NaN (first block of
    # proj.w) in parameter order
    ([("b", "block0.mlp.fc.w", 35000, np.inf), ("a", "block0.mlp.proj.w", 5, np.nan)],
     ("b", "block0.mlp.fc.w")),
    # within one parameter the first client in id order is named, though
    # c's NaN sits in an earlier block than a's -inf
    ([("c", "block0.mlp.fc.w", 0, np.nan), ("a", "block0.mlp.fc.w", 36000, -np.inf)],
     ("a", "block0.mlp.fc.w")),
    # opposite infinities sum to NaN, silently
    ([("c", "block0.mlp.fc.w", 9, -np.inf), ("b", "block0.mlp.fc.w", 9, np.inf)],
     ("b", "block0.mlp.fc.w")),
])
def test_aggregate_names_the_first_non_finite_parameter_and_client(poison, culprit):
    ups = random_updates({"a": 3, "b": 2, "c": 9})
    by_id = {u.client_id: u for u in ups}
    for cid, name, index, value in poison:
        by_id[cid].weights[name].data.reshape(-1)[index] = value
    cid, name = culprit
    with pytest.raises(AggregationError,
                       match=f"^client {cid} parameter {name} has non-finite values$"):
        aggregate(ups)


def test_aggregate_rejects_empty_and_zero_examples():
    with pytest.raises(AggregationError):
        aggregate([])
    with pytest.raises(AggregationError, match="client bad reports 0"):
        aggregate([update("a", 1.0, 3), update("bad", 1.0, 0)])


def test_aggregate_rejects_a_client_id_that_comes_twice():
    # averaging one client twice would weight it double
    with pytest.raises(AggregationError, match="client b sent more than one update"):
        aggregate([update("b", 1.0, 2), update("a", 1.0, 3), update("b", 1.0, 2)])


def test_aggregate_rejects_shape_mismatch():
    small = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                        hidden_size=4, n_positions=8, seed=0)
    with pytest.raises(AggregationError, match="client z parameter"):
        aggregate([update("a", 1.0, 1),
                   ClientUpdate("z", weight_set(1.0, small), 1, 0.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_round_with_a_non_finite_update_fails_naming_client_and_parameter(bad):
    """The round driver stops at a NaN or infinite update instead of averaging
    it into the global model; nothing is aggregated."""
    cfg = FedConfig(rounds=2, min_available_clients=1, local_epochs=1, seed=0)
    name = list(parameter_shapes(MC))[3][0]

    def fit(weights, round_idx, ids):
        for cid in ids:
            u = update(cid, 0.5, 2)
            if cid == "b":
                u.weights[name].data.reshape(-1)[1] = bad
            yield cid, u

    events = []
    with pytest.raises(AggregationError, match=f"client b parameter {name} "):
        drive_fold(0, {"a": 2, "b": 2, "c": 2}, fit, lambda *a: iter(()),
                   init_model(MC), cfg, audit=events.append, eval_base=False)
    assert [e["event"] for e in events] == ["broadcast"] + ["fit_result"] * 3


def test_a_diverging_fold_writes_strict_json(tmp_path):
    """A client whose loss overflows ends the fold at its first non-finite
    batch loss, before any update is filed; what the audit holds so far
    still parses strictly, and a non-finite number is written as null."""
    def strict(text):
        return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text}"))

    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=2,
                    batch_size=8, local_lr=1e30, seed=0)
    path = tmp_path / "audit.jsonl"
    with open(path, "w", encoding="utf-8") as fh, np.errstate(over="ignore", invalid="ignore"):
        # one batch per epoch: the first step overflows the weights
        with pytest.raises(DivergenceError, match="at epoch 2, batch 1$"):
            run_fold(0, client_data(2), init_model(MC), cfg,
                     audit=lambda e: append_jsonl(fh, e))
    events = [strict(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert events and all(e["event"] != "fit_result" for e in events)
    # the other writer, with the finite values as json.dumps writes them
    atomic_write_json(str(path), {"loss": [0.1, math.nan, -math.inf, (math.inf, 2.5)]})
    assert strict(path.read_text(encoding="utf-8")) == {"loss": [0.1, None, None, [None, 2.5]]}


# ------------------------------------------------------------- clients

def test_client_fit_deterministic_per_identity():
    clients = client_data()
    cid = sorted(clients)[0]
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=3)
    base = init_model(MC)
    a = client_fit(base, clients[cid][0], cfg, cid, fold=0, round_idx=1)
    b = client_fit(base, clients[cid][0], cfg, cid, fold=0, round_idx=1)
    assert a.weights.equals_bitwise(b.weights)
    assert a.num_examples == len(clients[cid][0])
    c = client_fit(base, clients[cid][0], cfg, cid, fold=0, round_idx=2)
    assert not a.weights.equals_bitwise(c.weights)  # new round, new stream


def test_single_client_federation_equals_sequential_training():
    """With one client, R rounds of FedAvg are exactly R chained local fits."""
    clients = client_data(n_subjects=1)
    cid = sorted(clients)[0]
    cfg = FedConfig(rounds=3, min_available_clients=1, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=9)
    base = init_model(MC)
    result = run_fold(0, clients, base, cfg)

    w = base.copy()
    for r in range(1, 4):
        tc = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=8,
                         seed=D.derive_seed(9, 0, cid, r))
        w, _ = train(w, clients[cid][0], tc)
    assert result.final_weights.equals_bitwise(w)


# ---------------------------------------------------------- run_fold

def test_run_fold_reports_and_audit_trail():
    clients = client_data()
    cfg = FedConfig(rounds=2, min_available_clients=4, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=0)
    events = []
    result = run_fold(0, clients, init_model(MC), cfg, audit=events.append)

    assert result.fold == 0
    assert result.base_report is not None
    assert len(result.round_reports) == 2
    assert result.final_report is result.round_reports[-1]
    assert len(result.base_report.clients) == 4
    for rep in result.round_reports:
        assert set(rep.summary) == {"mean", "median", "q1", "q3", "min", "max"}

    kinds = [e["event"] for e in events]
    assert kinds.count("broadcast") == 2
    assert kinds.count("aggregate") == 2
    assert kinds.count("fit_result") == 8    # 4 clients x 2 rounds
    assert kinds.count("eval_result") == 12  # base eval + 2 rounds
    assert all("ts" in e for e in events)
    # every client fits and is scored in every round, in client-id order
    for r in (1, 2):
        for kind in ("fit_result", "eval_result"):
            assert [e["client_id"] for e in events
                    if e["event"] == kind and e["round"] == r] == sorted(clients)


def test_run_fold_below_min_available_clients_fails_before_any_client(monkeypatch):
    """The client count is checked once, before the base eval or any fit."""
    def asked(*args, **kwargs):
        raise AssertionError("a client was asked before the client count was checked")

    monkeypatch.setattr(fedavg, "client_fit", asked)
    monkeypatch.setattr(fedavg, "evaluate", asked)
    cfg = FedConfig(rounds=1, min_available_clients=3, local_epochs=1, seed=0)
    events = []
    with pytest.raises(AvailabilityError, match="2 clients available, 3 required"):
        run_fold(0, client_data(n_subjects=2), init_model(MC), cfg, audit=events.append)
    assert events == []


def test_a_fold_without_training_windows_fails_before_any_client():
    """Clients that all report 0 training windows (TCP peers that HELLO with
    count 0, say) end the fold before the base eval, not at round 1's
    aggregate."""
    def asked(*args):
        raise AssertionError("a client was asked in a fold with no training window")

    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1, seed=0)
    events = []
    with pytest.raises(AvailabilityError, match="^fold 3: no client has a training window$"):
        drive_fold(3, {"a": 0, "b": 0}, asked, asked, init_model(MC), cfg,
                   audit=events.append)
    assert events == []


def test_run_round_aggregates_the_stub_updates_and_files_one_report():
    """One round over the fold state: the state's weights become aggregate()
    of what fit yielded, bit for bit, one report is added, and the audit
    events come in the driver's order."""
    fills = {"a": (0.25, 3), "b": (0.5, 1), "c": (2.0, 2)}
    base = weight_set(1.0)
    asked = []

    def fit(weights, round_idx, ids):
        asked.append(("fit", weights, round_idx, ids))
        for cid in ids:
            yield cid, update(cid, *fills[cid])

    def evaluate_clients(weights, round_idx, ids):
        asked.append(("eval", weights, round_idx, ids))
        for cid in ids:
            yield cid, ClientReport.from_counts(cid, [ConfusionCounts(2, 1, 1, 1)] * 3,
                                                ["x", "y", "z"])

    state = fedavg.FoldResult(7, None, final_weights=base, member_ids=["a", "b", "c", "d"])
    events = []
    fedavg._run_round(state, {"a": 3, "b": 1, "c": 2, "d": 0}, fit, evaluate_clients,
                      events.append)

    want = aggregate([update(cid, *fills[cid]) for cid in "abc"])
    assert state.final_weights.equals_bitwise(want)
    assert [(kind, r, ids) for kind, _w, r, ids in asked] == [
        ("fit", 1, ["a", "b", "c"]), ("eval", 1, ["a", "b", "c", "d"])]
    assert asked[0][1] is base and asked[1][1] is state.final_weights
    assert len(state.round_reports) == 1 and state.round_reports[0].fold == 7
    assert [c.subject_id for c in state.round_reports[0].clients] == ["a", "b", "c", "d"]
    assert [(e["event"], e.get("client_id")) for e in events] == [
        ("broadcast", None), ("skip", "d"),
        ("fit_result", "a"), ("fit_result", "b"), ("fit_result", "c"),
        ("aggregate", None),
        ("eval_result", "a"), ("eval_result", "b"), ("eval_result", "c"), ("eval_result", "d")]
    assert all(e["fold"] == 7 and e["round"] == 1 for e in events)


def test_run_fold_deterministic_end_to_end():
    clients = client_data()
    cfg = FedConfig(rounds=2, min_available_clients=4, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=4)
    a = run_fold(0, clients, init_model(MC), cfg)
    b = run_fold(0, clients, init_model(MC), cfg)
    assert a.final_weights.equals_bitwise(b.final_weights)
    assert a.final_report.summary == b.final_report.summary


def test_run_fold_federation_improves_on_fresh_weights():
    """Frozen regression: two rounds of local fitting beat the raw init."""
    clients = client_data()
    cfg = FedConfig(rounds=2, min_available_clients=4, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=0)
    result = run_fold(0, clients, init_model(MC), cfg)
    assert result.final_report.summary["mean"] > result.base_report.summary["mean"]
    assert result.final_report.summary["mean"] > 0.6


def test_run_fold_skips_empty_clients_in_training():
    clients = client_data()
    cid = sorted(clients)[0]
    clients[cid] = ([], clients[cid][1])  # no local data, still evaluated
    cfg = FedConfig(rounds=1, min_available_clients=4, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=0)
    events = []
    result = run_fold(0, clients, init_model(MC), cfg, audit=events.append)
    kinds = [e["event"] for e in events]
    # the round driver skips it before any client trains
    assert kinds[kinds.index("broadcast"):][:5] == ["broadcast", "skip"] + ["fit_result"] * 3
    assert [e["client_id"] for e in events if e["event"] == "skip"] == [cid]
    assert len(result.final_report.clients) == 4
    with pytest.raises(ConfigError, match="at least one window"):
        client_fit(init_model(MC), [], cfg, cid, fold=0, round_idx=1)


@pytest.mark.parametrize("fault, message", [
    ("no test window", "evaluation needs at least one window"),
    ("no positive label", "no label has a defined balanced accuracy"),
])
def test_run_fold_names_a_client_it_cannot_score(fault, message):
    """A client without test windows (a subject whose one window went to
    train) or without a label that shows both classes ends the fold with an
    error naming it, as client_failed names it over TCP."""
    clients = client_data()
    cid = sorted(clients)[1]
    train_w, test_w = clients[cid]
    if fault == "no test window":
        test_w = test_w[:0]
    else:
        test_w = dataclasses.replace(test_w, targets=np.zeros_like(test_w.targets))
    clients[cid] = (train_w, test_w)
    cfg = FedConfig(rounds=1, min_available_clients=4, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    with pytest.raises(DegenerateReportError, match=f"^subject {cid}: {message}$"):
        run_fold(0, clients, init_model(MC), cfg)


# ------------------------------------------------------- worker processes

def child_pids():
    """This process's child pids, as the kernel lists them per thread."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        pytest.skip("this kernel does not list a process's children")
    pids = set()
    for path in paths:
        with open(path, encoding="ascii") as fh:
            pids.update(fh.read().split())
    return pids


def uneven_clients(largest_first=False):
    """Five clients, more than this host has cores, with 1 to 5 training
    windows in id order (or 5 to 1 with ``largest_first``), so the workers
    free up at different times."""
    clients = client_data(n_subjects=5)
    for k, cid in enumerate(sorted(clients, reverse=largest_first)):
        train_w, test_w = clients[cid]
        clients[cid] = (train_w[:k + 1], test_w)
    return clients


def in_process_fold(clients, base, cfg, audit):
    """run_fold's rounds with every fit run here, one after another."""
    def fit(weights, round_idx, ids):
        for cid in ids:
            yield cid, client_fit(weights, clients[cid][0], cfg, cid, 0, round_idx)

    def evaluate_clients(weights, round_idx, ids):
        for cid in ids:
            yield cid, evaluate(weights, clients[cid][1], cid)

    return drive_fold(0, {cid: len(tr) for cid, (tr, _te) in clients.items()},
                      fit, evaluate_clients, base, cfg, audit=audit)


def without_ts(events):
    return [{k: v for k, v in e.items() if k != "ts"} for e in events]


def test_pooled_fold_equals_fitting_every_client_in_process_bitwise():
    cfg = FedConfig(rounds=2, min_available_clients=5, local_epochs=2,
                    batch_size=2, local_lr=1e-2, seed=6)
    base = init_model(MC)
    for largest_first in (False, True):
        clients = uneven_clients(largest_first)
        assert len(clients) > fedavg._usable_cores()
        before = child_pids()
        pooled_events, local_events = [], []
        pooled = run_fold(0, clients, base, cfg, audit=pooled_events.append)
        assert child_pids() == before
        local = in_process_fold(clients, base, cfg, local_events.append)
        assert pooled.final_weights.equals_bitwise(local.final_weights)
        assert pooled.to_json_dict() == local.to_json_dict()
        assert without_ts(pooled_events) == without_ts(local_events)
        assert len(pooled.worker_blas_threads) == fedavg._usable_cores()


def test_each_worker_gets_the_weights_and_each_client_its_windows_once_per_round(
        monkeypatch):
    """The pool's traffic: a start message per worker, then per round one task
    per client in id order, and the round's weights with each worker's first."""
    clients = uneven_clients()
    cfg = FedConfig(rounds=3, min_available_clients=5, local_epochs=1,
                    batch_size=2, local_lr=1e-2, seed=0)
    sent = []  # (worker pid, task, whether the weights came with it)
    real_send = fedavg._Workers._send

    def send(self, proc, task, blob=b""):
        sent.append((proc.pid, task, bool(blob)))
        real_send(self, proc, task, blob)

    monkeypatch.setattr(fedavg._Workers, "_send", send)
    result = run_fold(0, clients, init_model(MC), cfg)
    starts = [pid for pid, task, _weighed in sent if len(task) == 3]
    assert len(starts) == len(result.worker_blas_threads) \
        == min(fedavg._usable_cores(), len(clients))
    tasks = [(pid, *task, weighed) for pid, task, weighed in sent if len(task) == 4]
    for round_idx in range(1, cfg.rounds + 1):
        this_round = [t for t in tasks if t[1] == round_idx]
        assert [cid for _pid, _r, cid, *_ in this_round] == sorted(clients)
        for _pid, _r, cid, windows, first, weighed in this_round:
            assert windows.features.tobytes() == clients[cid][0].features.tobytes()
            assert first == weighed
        assert sorted(pid for pid, *_, weighed in this_round if weighed) == sorted(starts)


def test_a_failing_client_reaches_the_caller_after_the_clients_before_it():
    """The last client in id order diverges in its worker; its DivergenceError
    is raised here, with its message, once the others' updates are filed."""
    clients = uneven_clients()
    last = sorted(clients)[-1]
    train_w, test_w = clients[last]
    clients[last] = (dataclasses.replace(train_w, features=np.full_like(train_w.features, np.nan)),
                     test_w)
    cfg = FedConfig(rounds=1, min_available_clients=5, local_epochs=1,
                    batch_size=2, local_lr=1e-2, seed=0)
    before = child_pids()
    events = []
    # the workers compute under this error state, as an in-process fit would
    with np.errstate(invalid="ignore"), \
            pytest.raises(DivergenceError, match="^training loss is nan at epoch 1, batch 1$") as err:
        run_fold(0, clients, init_model(MC), cfg, audit=events.append)
    assert child_pids() == before
    # chained to the worker's own traceback, which shows where it was raised
    assert "in train" in str(err.value.__cause__)
    fits = [e["client_id"] for e in events if e["event"] == "fit_result"]
    assert fits == sorted(clients)[:-1]
    assert events[-1]["event"] == "fit_result"


def test_an_interrupt_from_the_audit_mid_round_ends_every_worker():
    clients = uneven_clients()
    cfg = FedConfig(rounds=2, min_available_clients=5, local_epochs=2,
                    batch_size=2, local_lr=1e-2, seed=0)

    def audit(event):
        if event["event"] == "fit_result":
            raise KeyboardInterrupt

    before = child_pids()
    with pytest.raises(KeyboardInterrupt):
        run_fold(0, clients, init_model(MC), cfg, audit=audit)
    assert child_pids() == before


@pytest.mark.parametrize("field, value, match", [
    ("seed", -1, "seed must fit in 64 bits"),
    ("seed", 2 ** 64, "seed must fit in 64 bits"),
    ("batch_size", 0, "batch_size must be in"),
    ("batch_size", 2 ** 32, "batch_size must be in"),
    ("local_epochs", 2 ** 32, "local_epochs must be in"),
])
def test_fed_config_refuses_what_a_round_config_cannot_carry(field, value, match):
    with pytest.raises(ConfigError, match=match):
        FedConfig(**{field: value})
    FedConfig(**{field: value - 1 if value > 0 else value + 1})  # the bound's other side


def test_fed_config_validation():
    with pytest.raises(ConfigError):
        FedConfig(rounds=0)
    with pytest.raises(ConfigError):
        FedConfig(local_lr=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="local_lr must be positive and finite"):
            FedConfig(local_lr=bad)
        with pytest.raises(ConfigError, match="round_timeout_s must be positive and finite"):
            FedConfig(round_timeout_s=bad)
        with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
            TrainConfig(epochs=1, learning_rate=bad)
