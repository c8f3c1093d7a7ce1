"""Release gate: nine checks that must all hold before shipping.

Each test prints one summary line when it passes (visible with -s or -rA)
and pins its own tolerances. Scale knobs and thresholds below were frozen
after one calibration run; see the values' comments.
"""

import json
import os
import pathlib
import socket
import threading
import time

import numpy as np
import pytest

import fedhar.data as D
import fedhar.wire as W
from fedhar.cli import main
from fedhar.fedavg import ClientUpdate, FedConfig, aggregate, run_fold
from fedhar.metrics import ConfusionCounts, balanced_accuracy
from fedhar.model import (ModelConfig, WeightSet, forward, init_model,
                          masked_weighted_loss, parameter_shapes)
from fedhar.tensor import Tensor, backward
from fedhar.training import SearchSpace

ROOT = pathlib.Path(__file__).resolve().parents[1]

# frozen after one calibration run: base mean BA 0.9791, federated 0.9812,
# ~16 s wall; noise 0.8 keeps the task non-trivial without risking the bar
PIPELINE_GEN = ["--subjects", "60", "--minutes", "240", "--features", "24",
                "--labels", "8", "--alpha", "0.2", "--noise-std", "0.8",
                "--seed", "7"]
PIPELINE_MODEL = ["--layers", "2", "--hidden", "48", "--n-positions", "32"]
PIPELINE_BA_FLOOR = 0.85
PIPELINE_BUDGET_S = 15 * 60


def test_1_full_scale_targets_documented_not_asserted():
    """Desk-scale runs cannot hit the full-scale numbers; the README must
    present them as targets of the full protocol, nothing here asserts them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for needle in ["20000", "2000", "0.747", "0.909", "0.55"]:
        assert needle in text, f"README lacks full-scale target {needle}"
    print("check 1: PASS (full-scale targets documented as targets only)")


@pytest.mark.skipif("FEDHAR_EXTRASENSORY_DIR" not in os.environ,
                    reason="set FEDHAR_EXTRASENSORY_DIR to run on real data")
def test_1b_real_data_reduced_scale_run(tmp_path):
    """Opt-in: full pipeline on the real dataset at reduced scale."""
    data = os.environ["FEDHAR_EXTRASENSORY_DIR"]
    t0 = time.monotonic()
    plan = tmp_path / "folds.json"
    assert main(["make-folds", "--data", data, "--out", str(plan),
                 "--n-folds", "5", "--seed", "0"]) == 0
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    assert main(["pretrain", "--data", data,
                 "--out", str(ckpts / "base_fold0.ckpt"),
                 "--fold-plan", str(plan), "--fold", "0",
                 "--epochs", "200", "--seed", "0"]) == 0
    out = tmp_path / "sim"
    assert main(["simulate", "--data", data, "--fold-plan", str(plan),
                 "--base-ckpt-dir", str(ckpts), "--out", str(out),
                 "--folds", "0", "--rounds", "4", "--local-epochs", "50",
                 "--seed", "0"]) == 0
    wall = time.monotonic() - t0
    fold = json.loads((out / "fold0.json").read_text())
    mean_ba = fold["final"]["summary"]["mean"]
    assert mean_ba > 0.55
    assert wall < 4 * 3600
    print(f"check 1b: PASS (real data, mean BA {mean_ba:.4f}, {wall:.0f}s)")


def test_2_gradients_match_finite_differences():
    """Backprop vs 64-bit central differences on 20 random tiny models.

    Every parameter tensor is probed: its largest-gradient element plus two
    random ones. Per config, all probes form one vector and its relative
    error must clear the bar; at h=1e-3 the FD truncation alone reaches
    ~1.7e-3 on individual near-zero-gradient elements even for an exact
    gradient (verified: error shrinks 100x when h shrinks 10x), so
    per-element comparison cannot be the measure."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    h = 1e-3
    worst = 0.0
    for trial in range(20):
        cfg = ModelConfig(
            n_features=int(rng.integers(2, 6)),
            n_labels=int(rng.integers(1, 4)),
            transformers_layers=int(rng.integers(1, 3)),
            hidden_size=int(rng.choice([4, 8, 16, 32])),
            n_positions=int(rng.integers(2, 9)),
            dropout=0.0,
            seed=int(rng.integers(0, 10_000)))
        w = init_model(cfg).astype(np.float64)
        batch = int(rng.integers(1, 3))
        length = int(rng.integers(1, cfg.n_positions + 1))
        x = rng.standard_normal((batch, length, cfg.n_features))
        t = rng.integers(0, 2, (batch, length, cfg.n_labels)).astype(float)
        m = (rng.random(t.shape) < 0.8).astype(float)
        m.reshape(-1)[0] = 1.0  # never fully masked
        pw = rng.uniform(0.5, 5.0, cfg.n_labels)

        def loss_value():
            return masked_weighted_loss(forward(w, x), t, m, pw).item()

        w.zero_grads()
        backward(masked_weighted_loss(forward(w, x), t, m, pw))
        got, want = [], []
        for name in w.names():
            flat = w[name].data.reshape(-1)
            grad = w[name].grad.reshape(-1)
            picks = {int(np.argmax(np.abs(grad)))}
            picks.update(int(i) for i in rng.integers(0, flat.size, 2))
            for idx in picks:
                old = flat[idx]
                flat[idx] = old + h
                up = loss_value()
                flat[idx] = old - h
                down = loss_value()
                flat[idx] = old
                want.append((up - down) / (2 * h))
                got.append(grad[idx])
        got, want = np.array(got), np.array(want)
        denom = max(np.linalg.norm(got), np.linalg.norm(want), 1e-8)
        rel = np.linalg.norm(got - want) / denom
        worst = max(worst, rel)
        assert rel < 1e-3, (trial, rel)
    wall = time.monotonic() - t0
    assert wall < 120.0
    print(f"check 2: PASS (20 configs, worst rel err {worst:.2e}, {wall:.1f}s)")


def test_3_aggregation_matches_weighted_mean_oracle():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(n_features=2, n_labels=1, transformers_layers=1,
                      hidden_size=4, n_positions=2, seed=0)
    worst = 0.0
    for _ in range(500):
        names = [f"p{i}" for i in range(int(rng.integers(1, 4)))]
        shapes = [tuple(rng.integers(1, 6, int(rng.integers(1, 4))))
                  for _ in names]
        k = int(rng.integers(1, 8))
        ns = rng.integers(1, 1_000_000, k)
        sets = []
        for _ in range(k):
            ws = WeightSet(cfg)
            for name, shape in zip(names, shapes):
                ws.tensors[name] = Tensor(
                    rng.standard_normal(shape).astype(np.float32))
            sets.append(ws)
        got = aggregate([ClientUpdate(f"c{i}", s, int(n), 0.0)
                         for i, (s, n) in enumerate(zip(sets, ns))])
        for name in names:
            want = sum(float(n) * s[name].data.astype(np.float64)
                       for n, s in zip(ns, sets)) / float(ns.sum())
            diff = float(np.max(np.abs(got[name].data - want)))
            worst = max(worst, diff)
            assert diff <= 1e-6

    # fixed point and single-client identity, bitwise
    ws = WeightSet(cfg)
    ws.tensors["p"] = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    same = aggregate([ClientUpdate("a", ws.copy(), 7, 0.0),
                      ClientUpdate("b", ws.copy(), 991, 0.0)])
    assert same.equals_bitwise(ws)
    assert aggregate([ClientUpdate("a", ws.copy(), 1, 0.0)]).equals_bitwise(ws)
    print(f"check 3: PASS (500 update sets, worst abs err {worst:.2e})")


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_4_simulation_and_tcp_produce_identical_weights():
    t0 = time.monotonic()
    mc = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                     hidden_size=8, n_positions=8, dropout=0.1, seed=0)
    spec = D.SyntheticSpec(n_subjects=4, minutes_per_subject=64, n_features=6,
                           n_labels=3, alpha=0.5, seed=1)
    records = D.gen_synthetic(spec)
    st = D.fit_standardizer(records)
    clients = {}
    for rec in records:
        ws = D.make_windows(D.apply_standardizer(rec, st), 8)
        clients[rec.subject_id] = D.split_train_test(ws, 0.8, seed=0)
    fed = FedConfig(rounds=2, min_available_clients=4, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=0)
    base = init_model(mc)

    port = _free_port()
    ready = threading.Event()
    box = {}

    def serve():
        box["tcp"] = W.server_loop("127.0.0.1", port, base, fed,
                                   expected_clients=4, accept_timeout=30.0,
                                   ready_event=ready)

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = [threading.Thread(target=W.client_loop,
                                args=("127.0.0.1", port, cid, mc, tr, te))
               for cid, (tr, te) in clients.items()]
    for t in workers:
        t.start()
    server.join(240.0)
    assert not server.is_alive()
    for t in workers:
        t.join(10.0)

    sim = run_fold(0, clients, base, fed)
    tcp = box["tcp"]
    worst = max(float(np.max(np.abs(sim.final_weights[n].data
                                    - tcp.final_weights[n].data)))
                for n in sim.final_weights.names())
    assert worst <= 1e-7
    assert tcp.final_weights.equals_bitwise(sim.final_weights)
    assert tcp.to_json_dict() == sim.to_json_dict()  # base eval and every round
    wall = time.monotonic() - t0
    assert wall < 300.0
    print(f"check 4: PASS (bitwise identical, worst |diff| {worst:.1e}, {wall:.1f}s)")


def test_5_balanced_accuracy_matches_brute_force():
    ba = balanced_accuracy(ConfusionCounts(tp=30, tn=40, fp=20, fn=10))
    assert ba == pytest.approx(0.7083333333333333, abs=1e-12)

    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, 2, n)
        target = rng.integers(0, 2, n)
        mask = rng.integers(0, 2, n)
        tp = fn = tn = fp = 0
        for p, t, m in zip(pred, target, mask):
            if not m:
                continue
            if t and p:
                tp += 1
            elif t and not p:
                fn += 1
            elif not t and p:
                fp += 1
            else:
                tn += 1
        want = None
        if tp + fn > 0 and tn + fp > 0:
            want = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
        got = balanced_accuracy(
            ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)
    print("check 5: PASS (1000 recounts + worked example)")


def test_6_synthetic_pipeline_end_to_end(tmp_path):
    t0 = time.monotonic()
    corpus = tmp_path / "corpus"
    assert main(["gen-synthetic", "--out", str(corpus)] + PIPELINE_GEN) == 0
    plan = tmp_path / "folds.json"
    assert main(["make-folds", "--data", str(corpus), "--out", str(plan),
                 "--n-folds", "5", "--seed", "7"]) == 0
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    assert main(["pretrain", "--data", str(corpus),
                 "--out", str(ckpts / "base_fold0.ckpt"),
                 "--fold-plan", str(plan), "--fold", "0",
                 "--epochs", "50", "--lr", "1e-3", "--batch-size", "64",
                 "--seed", "7"] + PIPELINE_MODEL) == 0
    out = tmp_path / "sim"
    assert main(["simulate", "--data", str(corpus), "--fold-plan", str(plan),
                 "--base-ckpt-dir", str(ckpts), "--out", str(out),
                 "--folds", "0", "--rounds", "4", "--local-epochs", "20",
                 "--local-lr", "1e-3", "--batch-size", "64",
                 "--seed", "7"]) == 0
    wall = time.monotonic() - t0

    fold = json.loads((out / "fold0.json").read_text())
    base_ba = fold["base"]["summary"]["mean"]
    final_ba = fold["final"]["summary"]["mean"]
    assert final_ba >= PIPELINE_BA_FLOOR
    assert final_ba >= base_ba
    assert wall < PIPELINE_BUDGET_S
    print(f"check 6: PASS (base BA {base_ba:.4f} -> federated {final_ba:.4f}, "
          f"{wall:.0f}s)")


def test_7_serialization_round_trips_and_golden_bytes():
    # hand-derived fixtures, stable across platforms
    cfg = ModelConfig(n_features=2, n_labels=1, transformers_layers=1,
                      hidden_size=4, n_positions=2, seed=0)
    ws = WeightSet(cfg)
    ws.tensors["b"] = Tensor(np.array([1.0, -1.0], dtype=np.float32))
    assert b"".join(W._blob_parts(ws)) == bytes.fromhex(
        "0100620102000000" "0000803f" "000080bf")
    assert W.frame_encode(W.MSG_DONE) == bytes.fromhex("0100000006")

    rng = np.random.default_rng(7)
    for i in range(200):
        mc = ModelConfig(
            n_features=int(rng.integers(1, 9)),
            n_labels=int(rng.integers(1, 6)),
            transformers_layers=int(rng.integers(1, 3)),
            hidden_size=int(rng.choice([4, 8, 16])),
            n_positions=int(rng.integers(2, 13)),
            seed=i)
        full = WeightSet(mc)
        for name, shape in parameter_shapes(mc):
            full.tensors[name] = Tensor(
                rng.standard_normal(shape).astype(np.float32),
                requires_grad=True)
        if i % 50 == 0:  # specials must survive too
            full.tensors["pos_emb"].data.reshape(-1)[:3] = [
                np.inf, -np.inf, np.nan]
        back = W.decode_weights(b"".join(W._blob_parts(full)), mc)
        assert back.equals_bitwise(full)
    print("check 7: PASS (200 round-trips bitwise + golden fixtures)")


def test_8_fold_plans_partition_subjects():
    ids = [f"subject-{i:02d}" for i in range(60)]
    for seed in range(100):
        plan = D.build_fold_plan(ids, seed, n_folds=5)
        again = D.build_fold_plan(ids, seed, n_folds=5)
        assert plan.to_json_dict() == again.to_json_dict()
        seen = set()
        for k in range(5):
            fold = plan.folds[k]
            assert len(fold) == 12
            assert not seen & set(fold)
            seen.update(fold)
            assert len(plan.base_subjects[k]) == 48
            assert set(plan.base_subjects[k]) == set(ids) - set(fold)
        assert seen == set(ids)
    print("check 8: PASS (100 seeds, 5x12 disjoint folds, 48 complements)")


def test_9_search_samples_stay_on_grid():
    space = SearchSpace()
    rng = np.random.default_rng(9)
    below = 0
    for _ in range(10_000):
        params = space.sample(rng)
        assert params["transformers_layers"] in (1, 2, 3, 4, 6, 12)
        assert params["hidden_size"] in (48, 96, 192, 384, 768)
        assert params["n_positions"] in (32, 64, 128, 256)
        assert 1e-5 <= params["learning_rate"] <= 1e-1
        below += params["learning_rate"] < 1e-3
    fraction = below / 10_000
    assert fraction == pytest.approx(0.50, abs=0.02)
    print(f"check 9: PASS (10000 samples on grid, lr<1e-3 fraction {fraction:.3f})")
