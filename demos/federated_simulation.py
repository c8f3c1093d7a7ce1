"""FedAvg in process: a base model, four clients, a few rounds."""

import numpy as np

import fedhar.data as D
from fedhar.fedavg import FedConfig, run_fold
from fedhar.model import ModelConfig, init_model
from fedhar.training import TrainConfig, train

spec = D.SyntheticSpec(n_subjects=8, minutes_per_subject=240, n_features=10,
                       n_labels=4, alpha=0.2, noise_std=0.6, seed=5)
records = D.gen_synthetic(spec)
st = D.fit_standardizer(records)
standardized = [D.apply_standardizer(r, st) for r in records]

cfg = ModelConfig(n_features=10, n_labels=4, transformers_layers=2,
                  hidden_size=32, n_positions=24, dropout=0.1, seed=0)

# subjects 0-3 pretrain the base model; subjects 4-7 act as clients
base_windows = D.Windows.concat(
    D.split_train_test(D.make_windows(rec, cfg.n_positions), 0.8, seed=0)[0]
    for rec in standardized[:4])
base, _ = train(init_model(cfg), base_windows,
                TrainConfig(epochs=25, learning_rate=1e-3, batch_size=16, seed=0))

clients = {}
for rec in standardized[4:]:
    ws = D.make_windows(rec, cfg.n_positions)
    clients[rec.subject_id] = D.split_train_test(ws, 0.8, seed=0)

fed = FedConfig(rounds=4, min_available_clients=4, local_epochs=10,
                batch_size=16, local_lr=5e-4, seed=0)
events = []
result = run_fold(0, clients, base, fed, audit=events.append,
                  label_names=standardized[0].label_names)

print("base model on the held-out clients: mean BA %.4f"
      % result.base_report.summary["mean"])
for i, rep in enumerate(result.round_reports, start=1):
    print("after round %d: mean BA %.4f  (min %.4f, max %.4f)"
          % (i, rep.summary["mean"], rep.summary["min"], rep.summary["max"]))

counts = {}
for e in events:
    counts[e["event"]] = counts.get(e["event"], 0) + 1
print("audit events:", dict(sorted(counts.items())))

norm = sum(float(np.sum(t.data ** 2)) for t in result.final_weights.tensors.values())
print("final global weight norm: %.4f" % norm ** 0.5)
