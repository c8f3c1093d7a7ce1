"""Centralized training on synthetic windows, then per-subject evaluation."""

import numpy as np

import fedhar.data as D
from fedhar.model import ModelConfig, init_model
from fedhar.training import TrainConfig, compute_pos_weight, evaluate, train

spec = D.SyntheticSpec(n_subjects=6, minutes_per_subject=240, n_features=10,
                       n_labels=4, alpha=0.3, noise_std=0.5, seed=3)
records = D.gen_synthetic(spec)
st = D.fit_standardizer(records)
standardized = [D.apply_standardizer(r, st) for r in records]

cfg = ModelConfig(n_features=10, n_labels=4, transformers_layers=2,
                  hidden_size=32, n_positions=24, dropout=0.1, seed=0)
train_parts, test_by_subject = [], {}
for rec in standardized:
    ws = D.make_windows(rec, cfg.n_positions)
    tr, te = D.split_train_test(ws, 0.8, seed=0)
    train_parts.append(tr)
    test_by_subject[rec.subject_id] = te
train_w = D.Windows.concat(train_parts)

pw = compute_pos_weight(train_w)
print("pos_weight per label (rare positives get upweighted):", np.round(pw, 2))

tc = TrainConfig(epochs=30, learning_rate=1e-3, batch_size=16, seed=0)
weights, history = train(init_model(cfg), train_w, tc)
print("loss: first %.4f  ->  last %.4f  (%d epochs on %d windows)"
      % (history[0], history[-1], len(history), len(train_w)))

print("per-subject test balanced accuracy:")
for sid, te in test_by_subject.items():
    rep = evaluate(weights, te, sid, standardized[0].label_names)
    print("  %s  mean BA %.3f over %d defined labels (%d instances)"
          % (sid, rep.mean_ba, rep.defined_labels, rep.n_eval_instances))

# the whole run is a function of the seeds: retrain and compare
again, _ = train(init_model(cfg), train_w, tc)
print("retrain bitwise identical:", weights.equals_bitwise(again))
