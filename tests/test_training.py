"""Local training loop, evaluation, and the random hyperparameter search."""

import json
import os
import resource
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import fedhar.data as D
import fedhar.tensor as T
import fedhar.training as TR
from fedhar.errors import ConfigError, DegenerateReportError, DivergenceError
from fedhar.metrics import ClientReport, confusion_from_arrays
from fedhar.model import (ModelConfig, forward, init_model, masked_weighted_loss,
                          parameter_shapes, predict)
from fedhar.tensor import Adam, Tensor, backward
from fedhar.training import (SearchSpace, TrainConfig, compute_pos_weight,
                             evaluate, random_search, train)
from fedhar.model import WeightSet
from fedhar.util import derive_seed

MC = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                 hidden_size=8, n_positions=8, dropout=0.1, seed=0)


def corpus(n_subjects=2, minutes=64, seed=0):
    spec = D.SyntheticSpec(n_subjects=n_subjects, minutes_per_subject=minutes,
                           n_features=6, n_labels=3, alpha=0.5, seed=seed)
    recs = D.gen_synthetic(spec)
    st = D.fit_standardizer(recs)
    return [D.apply_standardizer(r, st) for r in recs]


def all_windows(recs, n_positions=8):
    return D.Windows.concat(D.make_windows(r, n_positions) for r in recs)


def test_train_loss_descends():
    ws = all_windows(corpus())
    tc = TrainConfig(epochs=4, learning_rate=1e-2, batch_size=8, seed=0)
    _, history = train(init_model(MC), ws, tc)
    assert len(history) == 4
    assert history[-1] < history[0]
    assert history[0] == pytest.approx(np.log(2), rel=0.2)  # tanh starts near 0


def test_train_does_not_mutate_input_weights():
    ws = all_windows(corpus())
    start = init_model(MC)
    snapshot = {n: t.data.copy() for n, t in start.items()}
    train(start, ws, TrainConfig(epochs=1, learning_rate=1e-2, seed=0))
    for name, data in snapshot.items():
        assert np.array_equal(start[name].data, data), name


def test_train_starts_over_the_input_arrays_and_returns_none_of_them():
    """No defensive copy: training reads the caller's arrays in place, and the
    optimizer's first step rebinds every parameter, so the input keeps its
    bytes and no trained array is a view of it."""
    ws = all_windows(corpus())
    start = init_model(MC)
    snapshot = {n: t.data.tobytes() for n, t in start.items()}
    trained, _ = train(start, ws, TrainConfig(epochs=1, learning_rate=1e-2, seed=0))
    for name, t in start.items():
        assert t.data.tobytes() == snapshot[name], name
        assert t.grad is None, name
        for other in trained.tensors.values():
            assert not np.shares_memory(other.data, t.data), name


def test_train_bitwise_deterministic():
    ws = all_windows(corpus())
    tc = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=8, seed=11)
    a, ha = train(init_model(MC), ws, tc)
    b, hb = train(init_model(MC), ws, tc)
    assert ha == hb
    assert a.equals_bitwise(b)


def test_train_seed_changes_result():
    ws = all_windows(corpus())
    a, _ = train(init_model(MC), ws,
                 TrainConfig(epochs=1, learning_rate=1e-2, seed=0))
    b, _ = train(init_model(MC), ws,
                 TrainConfig(epochs=1, learning_rate=1e-2, seed=1))
    assert not a.equals_bitwise(b)


def test_train_validates_inputs():
    ws = all_windows(corpus())
    with pytest.raises(ConfigError):
        train(init_model(MC), ws[:0], TrainConfig(epochs=1, learning_rate=1e-2))
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0, learning_rate=1e-2)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, learning_rate=0.0)
    wrong = ModelConfig(n_features=9, n_labels=3, transformers_layers=1,
                        hidden_size=8, n_positions=8, seed=0)
    with pytest.raises(ConfigError):
        train(init_model(wrong), ws, TrainConfig(epochs=1, learning_rate=1e-2))


def _graph_closures(y):
    """The VJP and ``rebuild`` closures of every node below ``y``: what
    keeps the graph's arrays alive until ``backward`` drops them."""
    closures, seen, stack = [], set(), [y._node]
    while stack:
        node = stack.pop()
        if node is None or isinstance(node, Tensor) or id(node) in seen:
            continue
        seen.add(id(node))
        closures += [node.vjp, node.rebuild]
        stack.extend(node.parents)
    return closures


def test_train_holds_one_graph_at_a_time(monkeypatch):
    """A step's graph is gone before the next forward builds its own.

    ``train`` peaks below one step's own peak (its forward, the graph, the
    backward pass and the gradients) plus the trained copy and Adam's two
    moments, with half a graph to spare. The negative control keeps the
    previous step's VJP closures, and so its graph's arrays, alive through
    each step, although ``backward`` has dropped them from the nodes; with
    two graphs at once the same bound fails."""
    cfg = ModelConfig(n_features=6, n_labels=3, transformers_layers=2,
                      hidden_size=32, n_positions=16, dropout=0.1, seed=0)
    ws = all_windows(corpus(minutes=800), n_positions=16)[:48]
    weights = init_model(cfg)
    first = ws[:16]
    x, pad, tgt, mask = first.features, first.pad_mask, first.targets, first.label_mask
    pos_weight = compute_pos_weight(ws)
    tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=16, seed=0)

    def train_peak():
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, history = train(weights, ws, tc)
        assert len(history) == 1
        return tracemalloc.get_traced_memory()[1] - before

    held = []

    def holding_forward(*args, **kwargs):
        y = forward(*args, **kwargs)
        held.append(_graph_closures(y))
        del held[:-2]  # the previous step's graph lives through this step
        return y

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = forward(weights, x, pad, train_mode=True, rng=np.random.default_rng(0))
        loss = masked_weighted_loss(y, tgt, mask, pos_weight)
        graph = tracemalloc.get_traced_memory()[0] - before
        backward(loss)
        step = tracemalloc.get_traced_memory()[1] - before
        del y, loss
        weights.zero_grads()
        peak = train_peak()
        monkeypatch.setattr(TR, "forward", holding_forward)
        two_graphs = train_peak()
        held.clear()
    finally:
        tracemalloc.stop()
    # the trained copy and Adam's two moments; ``step`` has the gradients
    state = 3 * sum(t.data.nbytes for t in weights.tensors.values())
    bound = step + state + graph // 2
    assert peak < bound, (peak, step, state, graph)
    assert two_graphs > bound, (two_graphs, step, state, graph)


def test_train_forward_never_sees_a_gradient(monkeypatch):
    """Each step's gradients are cleared right after the optimizer reads
    them, so none is alive while the next forward builds its graph."""
    ws = all_windows(corpus())
    calls = []

    def checking_forward(weights, *args, **kwargs):
        assert all(t.grad is None for t in weights.tensors.values()), len(calls)
        calls.append(1)
        return forward(weights, *args, **kwargs)

    monkeypatch.setattr(TR, "forward", checking_forward)
    train(init_model(MC), ws, TrainConfig(epochs=2, learning_rate=1e-2, batch_size=8, seed=0))
    assert len(calls) > 2


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc() or not hasattr(resource, "RUSAGE_THREAD"),
                    reason="the malloc setting and per-thread rusage are Linux/glibc only")
def test_repeated_train_reuses_freed_memory():
    """The heap keeps each freed graph for the next step instead of handing
    it back to the kernel and faulting it in again."""
    cfg = ModelConfig(n_features=24, n_labels=8, transformers_layers=2,
                      hidden_size=48, n_positions=32, dropout=0.1, seed=0)
    spec = D.SyntheticSpec(n_subjects=2, minutes_per_subject=1024, n_features=24,
                           n_labels=8, alpha=0.5, seed=0)
    recs = D.gen_synthetic(spec)
    st = D.fit_standardizer(recs)
    ws = D.Windows.concat(D.make_windows(D.apply_standardizer(r, st), 32) for r in recs)
    weights = init_model(cfg)
    tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=64, seed=0)
    train(weights, ws, tc)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    train(weights, ws, tc)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults < 1000, faults


def test_train_returns_weights_without_grads_and_the_same_bits():
    ws = all_windows(corpus())
    trained, _ = train(init_model(MC), ws, TrainConfig(epochs=2, learning_rate=1e-2,
                                                       batch_size=8, seed=0))
    assert all(t.grad is None for t in trained.tensors.values())
    # the loop train runs, replayed by hand: it ends holding the last grads
    w = init_model(MC)
    pos_weight = compute_pos_weight(ws)
    x, pad, tgt, mask = ws.features, ws.pad_mask, ws.targets, ws.label_mask
    shuffle_rng = np.random.default_rng(derive_seed(0, "shuffle"))
    drop_rng = np.random.default_rng(derive_seed(0, "dropout"))
    opt = Adam()
    for _ in range(2):
        order = shuffle_rng.permutation(len(ws))
        for start in range(0, len(ws), 8):
            idx = order[start:start + 8]
            y = forward(w, x[idx], pad[idx], train_mode=True, rng=drop_rng)
            w.zero_grads()
            backward(masked_weighted_loss(y, tgt[idx], mask[idx], pos_weight))
            opt.step(w.tensors, 1e-2)
    assert all(t.grad is not None for t in w.tensors.values())
    for name, t in trained.items():
        assert t.data.tobytes() == w[name].data.tobytes(), name


# ------------------------------------------------ BLAS threads per training

needs_openblas = pytest.mark.skipif(
    T._openblas is None, reason="numpy's OpenBLAS thread-count functions not found")


def synthetic_windows(n_features, n_labels, minutes, n_positions, seed=0):
    spec = D.SyntheticSpec(n_subjects=1, minutes_per_subject=minutes,
                           n_features=n_features, n_labels=n_labels, alpha=0.5, seed=seed)
    rec = D.gen_synthetic(spec)[0]
    rec = D.apply_standardizer(rec, D.fit_standardizer([rec]))
    return D.make_windows(rec, n_positions)


@needs_openblas
def test_train_bits_do_not_depend_on_the_blas_thread_count():
    cfg = ModelConfig(n_features=225, n_labels=51, transformers_layers=4,
                      hidden_size=384, n_positions=32, dropout=0.1, seed=0)
    ws = synthetic_windows(225, 51, minutes=128, n_positions=32)
    weights = init_model(cfg)
    tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=len(ws), seed=0)
    _, get, set_threads = T._openblas
    out = {}
    try:
        for n in (1, 2):
            set_threads(n)
            assert get() == n
            trained, _ = train(weights, ws, tc)
            out[n] = [t.data.tobytes() for t in trained.tensors.values()]
    finally:
        set_threads(T._blas_start)
    assert out[1] == out[2]


def test_direct_train_and_evaluate_take_no_blas_share(monkeypatch):
    """Only a TCP client thread (``wire.client_loop``) holds a BLAS share; a
    train or an evaluate called directly runs on the whole pool."""
    active = []
    real = TR.forward
    monkeypatch.setattr(TR, "forward", lambda *args, **kwargs: (
        active.append(T._blas_share._active), real(*args, **kwargs))[1])
    ws = all_windows(corpus())
    tc = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=len(ws), seed=0)
    trained, _ = train(init_model(MC), ws, tc)
    assert active == [0]  # the one batch's forward
    active.clear()
    evaluate(trained, ws[:8])
    assert active == [0]


def test_blas_share_counts_every_entry_and_exit_under_contention(monkeypatch):
    """A lost update to the in-flight count would leave the pool shrunk."""
    pool = [4]
    monkeypatch.setattr(T, "_openblas", ("fake", lambda: pool[0],
                                         lambda n: pool.__setitem__(0, n)))
    monkeypatch.setattr(T, "_blas_start", 4)
    share = T._BlasShare()
    seen = set()

    def enter_and_exit():
        for _ in range(500):
            with share:
                seen.add(pool[0])
    threads = [threading.Thread(target=enter_and_exit) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert share._active == 0 and pool[0] == 4
    assert seen <= {4, 2, 1}


# Two co-hosted TCP clients in a process started at one BLAS thread: each
# client's fit records how many shares are held, and the main thread polls
# the pool size while the clients run.
TWO_CLIENTS = """
import json, socket, threading, time
import fedhar.data as D
import fedhar.tensor as T
import fedhar.wire as W
from fedhar.fedavg import FedConfig
from fedhar.model import ModelConfig, init_model

calls, held = [], []
name, get, set_threads = T._openblas
T._openblas = (name, get, lambda n: (calls.append(n), set_threads(n)))
real_fit = W.client_fit
W.client_fit = lambda *args: (held.append(T._blas_share._active), real_fit(*args))[1]
spec = D.SyntheticSpec(n_subjects=2, minutes_per_subject=64, n_features=6,
                       n_labels=3, alpha=0.5, seed=0)
mc = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                 hidden_size=8, n_positions=8, dropout=0.1, seed=0)
fed = FedConfig(rounds=1, min_available_clients=2, local_epochs=1, batch_size=8,
                local_lr=1e-2, seed=0)
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
ready = threading.Event()
server = threading.Thread(target=W.server_loop, args=("127.0.0.1", port, init_model(mc), fed),
                          kwargs={"expected_clients": 2, "accept_timeout": 30.0,
                                  "ready_event": ready})
server.start()
assert ready.wait(10.0)
clients = [threading.Thread(target=W.client_loop, args=(
               "127.0.0.1", port, rec.subject_id, mc,
               *D.split_train_test(D.make_windows(rec, 8), 0.8, seed=0)))
           for rec in D.gen_synthetic(spec)]
seen = [get()]
for t in clients:
    t.start()
while any(t.is_alive() for t in clients):
    seen.append(get())
    time.sleep(0.001)
for t in clients + [server]:
    t.join(60.0)
seen.append(get())
print(json.dumps({"start": T._blas_start, "max": max(seen), "held": held, "calls": calls}))
"""


@needs_openblas
def test_a_process_started_at_one_blas_thread_stays_there():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", TWO_CLIENTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # both clients held a share at each fit, and the pool never moved
    assert json.loads(proc.stdout) == {"start": 1, "max": 1, "held": [2, 2], "calls": []}


def test_pos_weight_ratio_and_clamp():
    ws = all_windows(corpus(n_subjects=3, minutes=96))
    pw = compute_pos_weight(ws)
    # recount by hand
    t = ws.targets.reshape(-1, 3)
    m = ws.label_mask.reshape(-1, 3)
    for l in range(3):
        pos = (t[:, l] & m[:, l]).sum()
        neg = (~t[:, l] & m[:, l]).sum()
        want = np.clip(neg / pos if pos else 100.0, 0.1, 100.0)
        assert pw[l] == pytest.approx(want, rel=1e-6)


def test_pos_weight_all_negative_label_clamps_high():
    w = D.make_windows(D.SubjectRecord(
        "s", np.arange(4, dtype=np.int64) * 60,
        np.zeros((4, 6), dtype=np.float32),
        np.zeros((4, 1), dtype=np.float32)), 4)
    assert compute_pos_weight(w)[0] == 100.0


def test_evaluate_perfect_oracle_weights():
    """Weights wired by hand so output sign equals the first feature's sign.

    Zeroed ln1/ln2 gains silence both sublayers, so the residual stream
    carries [x0, 0, 0, 0] straight to the final norm; the identity head and
    an out.w picking channel 0 make the label exactly sign(x0).
    """
    cfg = ModelConfig(n_features=2, n_labels=1, transformers_layers=1,
                      hidden_size=4, n_positions=4, dropout=0.0, seed=0)
    w = WeightSet(cfg)
    for name, shape in parameter_shapes(cfg):
        data = np.zeros(shape, dtype=np.float32)
        if name == "input_proj.w":
            data[0, 0] = 1.0   # feature 0 -> channel 0
        elif name == "head.w":
            data = np.eye(4, dtype=np.float32)
        elif name == "out.w":
            data[0, 0] = 1.0   # channel 0 -> the label
        elif name == "ln_f.gain":
            data = np.ones(shape, dtype=np.float32)
        w.tensors[name] = Tensor(data, requires_grad=True)

    fw = np.zeros((4, 2), dtype=np.float32)
    fw[:, 0] = [2.0, -2.0, 2.0, -2.0]
    tg = fw[:, :1] > 0
    win = D.Windows(np.array(["s"]), fw[None], tg[None], np.ones((1, 4, 1), dtype=bool),
                    np.ones((1, 4), dtype=bool))
    report = evaluate(w, win, "s", ["label:X"])
    assert report.mean_ba == 1.0


def test_evaluate_counts_match_manual_confusion():
    w = init_model(MC)
    small = corpus()
    # 75 windows cross EVAL_BATCH's boundary; about 20% of the label cells
    # are masked out as missing
    big = corpus(n_subjects=3, minutes=200, seed=4)
    big_windows = all_windows(big)
    rng = np.random.default_rng(5)
    big_windows.label_mask &= rng.random(big_windows.label_mask.shape) >= 0.2
    assert len(big_windows) > TR.EVAL_BATCH
    for recs, ws in ((small, all_windows(small)), (big, big_windows)):
        rep = evaluate(w, ws, "pooled", recs[0].label_names)
        tgt, mask = ws.targets, ws.label_mask
        pred = predict(forward(w, ws.features, ws.pad_mask)) > 0
        want = []
        for l in range(tgt.shape[-1]):  # one label at a time, counted by case
            p, t, m = pred[..., l], tgt[..., l], mask[..., l]
            want.append((int((p & t)[m].sum()), int((~p & ~t)[m].sum()),
                         int((p & ~t)[m].sum()), int((~p & t)[m].sum())))
        assert [(c.tp, c.tn, c.fp, c.fn) for c in rep.counts] == want
        assert rep.n_eval_instances == int(mask.sum())


def test_evaluate_builds_no_graph_and_matches_grad_forward(monkeypatch):
    recs = corpus()
    ws = all_windows(recs)
    w = init_model(MC)
    outputs = []

    def spy(*args, **kwargs):
        y = forward(*args, **kwargs)
        outputs.append(y)
        return y

    monkeypatch.setattr(TR, "forward", spy)
    rep = evaluate(w, ws, "pooled", recs[0].label_names)
    assert outputs and all(not y.requires_grad and y._node is None for y in outputs)
    assert all(t.grad is None for t in w.tensors.values())
    assert all(t.requires_grad for t in w.tensors.values())

    y = forward(w, ws.features, ws.pad_mask)
    assert y.requires_grad  # the same forward over the weights themselves
    counts = confusion_from_arrays(predict(y), ws.targets, ws.label_mask)
    assert rep == ClientReport.from_counts("pooled", counts, recs[0].label_names)


def test_evaluate_empty_windows_raises():
    empty = all_windows(corpus())[:0]
    with pytest.raises(DegenerateReportError, match="^subject s: evaluation needs"):
        evaluate(init_model(MC), empty, "s")
    with pytest.raises(DegenerateReportError, match="^subject pooled: evaluation needs"):
        evaluate(init_model(MC), empty)


# -------------------------------------------------------------- search

def test_search_space_samples_stay_on_grid():
    space = SearchSpace()
    rng = np.random.default_rng(0)
    for _ in range(300):
        s = space.sample(rng)
        assert s["transformers_layers"] in (1, 2, 3, 4, 6, 12)
        assert s["hidden_size"] in (48, 96, 192, 384, 768)
        assert s["n_positions"] in (32, 64, 128, 256)
        assert 1e-5 <= s["learning_rate"] <= 1e-1


def test_search_space_lr_is_log_uniform():
    space = SearchSpace()
    rng = np.random.default_rng(1)
    lrs = np.array([space.sample(rng)["learning_rate"] for _ in range(4000)])
    # median of log10 should sit near the center, -3
    assert np.median(np.log10(lrs)) == pytest.approx(-3.0, abs=0.1)


def test_random_search_runs_and_is_deterministic():
    recs = corpus(n_subjects=2, minutes=200, seed=5)
    space = SearchSpace(layers_choices=(1,), hidden_choices=(8,),
                        n_positions_choices=(8,), lr_low=1e-3, lr_high=1e-1)
    best1, trials1 = random_search(space, 3, recs, seed=7, epochs=2, batch_size=8)
    best2, trials2 = random_search(space, 3, recs, seed=7, epochs=2, batch_size=8)
    assert len(trials1) == 3
    assert [t.params for t in trials1] == [t.params for t in trials2]
    assert [t.val_mean_ba for t in trials1] == [t.val_mean_ba for t in trials2]
    assert best1 is not None
    assert best1.index == best2.index
    scored = [t for t in trials1 if t.val_mean_ba is not None]
    assert best1.val_mean_ba == max(t.val_mean_ba for t in scored)


def test_random_search_tie_at_zero_goes_to_earliest_trial(monkeypatch):
    recs = corpus(n_subjects=2, minutes=200, seed=5)
    space = SearchSpace(layers_choices=(1,), hidden_choices=(8,),
                        n_positions_choices=(8,))
    monkeypatch.setattr(TR, "evaluate", lambda *a, **k: SimpleNamespace(mean_ba=0.0))
    best, trials = random_search(space, 3, recs, seed=0, epochs=1, batch_size=8)
    assert [t.val_mean_ba for t in trials] == [0.0, 0.0, 0.0]
    assert best is trials[0]


def test_random_search_oversized_windows_fail_soft():
    recs = corpus(n_subjects=1, minutes=30, seed=0)
    space = SearchSpace(layers_choices=(1,), hidden_choices=(8,),
                        n_positions_choices=(256,))
    with pytest.warns(D.SplitWarning):
        best, trials = random_search(space, 2, recs, seed=0, epochs=1)
    assert best is None
    assert all(t.val_mean_ba is None for t in trials)


def test_train_stops_at_the_first_non_finite_loss():
    """lr 1e30 overflows the weights after the first step, so the second
    batch's loss is the first non-finite one."""
    ws = all_windows(corpus())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="loss is .* at epoch 1, batch 2$"):
            train(init_model(MC), ws, TrainConfig(epochs=2, learning_rate=1e30, batch_size=8))


def test_random_search_records_a_diverged_trial_unscored(caplog):
    recs = corpus(n_subjects=2, minutes=200, seed=5)
    space = SearchSpace(layers_choices=(1,), hidden_choices=(8,),
                        n_positions_choices=(8,), lr_low=1e30, lr_high=1e30)
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        best, trials = random_search(space, 2, recs, seed=0, epochs=2, batch_size=8,
                                     on_trial=lambda t: seen.append(t.to_json_dict()))
    assert best is None and len(trials) == 2  # the search goes on after a failed trial
    assert [(d["val_mean_ba"], d["epochs"], d["final_loss"]) for d in seen] == \
        [(None, 0, None)] * 2
    assert "trial 1: training loss is" in caplog.text


def test_random_search_trial_log_schema():
    recs = corpus(n_subjects=2, minutes=200, seed=5)
    space = SearchSpace(layers_choices=(1,), hidden_choices=(8,),
                        n_positions_choices=(8,), lr_low=1e-3, lr_high=1e-2)
    seen = []
    random_search(space, 2, recs, seed=1, epochs=2, batch_size=8,
                  on_trial=lambda t: seen.append(t.to_json_dict()))
    assert len(seen) == 2
    for i, d in enumerate(seen):
        assert d["trial"] == i
        assert set(d["params"]) == {"transformers_layers", "hidden_size",
                                    "n_positions", "learning_rate"}
        assert d["epochs"] == 2
        assert d["wall_ms"] > 0


def test_random_search_validates_budget():
    with pytest.raises(ConfigError):
        random_search(SearchSpace(), 0, corpus(), seed=0)
