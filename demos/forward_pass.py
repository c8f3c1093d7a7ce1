"""Init a tiny model, push a batch through it, look at the pieces."""

import numpy as np

from fedhar.model import (ModelConfig, forward, init_model,
                          masked_weighted_loss, predict)

cfg = ModelConfig(n_features=5, n_labels=3, transformers_layers=2,
                  hidden_size=16, n_positions=12, dropout=0.1, seed=42)
weights = init_model(cfg)
print("config:", cfg.__dict__)
print("parameters:", weights.num_params())

rng = np.random.default_rng(0)
x = rng.standard_normal((4, 9, 5)).astype(np.float32)  # 4 windows, 9 minutes
y = forward(weights, x)
print("output shape:", y.data.shape, " range: (%.3f, %.3f)"
      % (y.data.min(), y.data.max()))

pred = predict(y.data)
print("positive rate at init: %.3f (tanh outputs hug 0, ties go negative)"
      % pred.mean())

# with every label reported and y ~ 0, the loss sits at ln 2
targets = rng.integers(0, 2, (4, 9, 3)).astype(np.float32)
mask = np.ones_like(targets)
pos_weight = np.ones(3)
loss = masked_weighted_loss(y, targets, mask, pos_weight)
print("loss at init: %.6f   ln 2 = %.6f" % (loss.data.item(), np.log(2.0)))

# shorter sequences are fine; longer than n_positions is a shape error
short = forward(weights, x[:, :1, :])
print("single-minute window output:", short.data.shape)
try:
    forward(weights, rng.standard_normal((1, 13, 5)).astype(np.float32))
except Exception as exc:
    print("14th minute rejected:", exc)
