"""A tour of the tensor library: build a graph, backprop, sanity-check."""

import numpy as np

import fedhar.tensor as T
from fedhar.errors import FedharError
from fedhar.tensor import Tensor, backward

# a tiny tanh classifier on two samples, scored by the training loss: the
# weighted cross-entropy on p = (1 + tanh(x @ w + b)) / 2, one graph node.
# Sample 0 is a positive with weight 2, sample 1 a negative with weight 1.
x = Tensor(np.array([[1.0, -2.0], [0.5, 0.25]]), requires_grad=True)
w = Tensor(np.array([[0.3], [-0.7]]), requires_grad=True)
b = Tensor(np.array([0.1]), requires_grad=True)
coef_pos = np.array([[2.0], [0.0]])
coef_neg = np.array([[0.0], [1.0]])


def loss() -> Tensor:
    y = T.tanh(T.linear(x, w, b))
    return T.weighted_bce(y, coef_pos, coef_neg, 3.0, 1e-7)


z = loss()
backward(z)
print("z          =", z.item())
print("dz/dw      =", w.grad.ravel())
print("dz/db      =", b.grad.ravel())

# the same derivative by central differences
h = 1e-6
fd = []
for i in range(2):
    w.data[i, 0] += h
    up = loss().item()
    w.data[i, 0] -= 2 * h
    down = loss().item()
    w.data[i, 0] += h
    fd.append((up - down) / (2 * h))
print("dz/dw (fd) =", np.array(fd))

# gradients accumulate until cleared: two graphs built from the same
# leaves, one backward pass each, double them
x.grad = None
backward(loss())
once = x.grad.copy()
backward(loss())
print("accumulation: a second graph's backward doubles the gradient:",
      np.allclose(x.grad, 2 * once))

# backward frees each graph's arrays as it consumes them, so a second pass
# through the same graph is refused rather than adding nothing
try:
    backward(z)
except FedharError as exc:
    print("second pass through z's graph refused:", exc)
else:
    raise SystemExit("a second pass through one graph should have raised")

# one Adam step moves each weight by roughly the learning rate,
# regardless of the raw gradient scale
opt = T.Adam()
before = w.data.copy()
w.grad = np.array([[1e-3], [-40.0]])
opt.step({"w": w}, lr=0.05)
print("adam step sizes:", np.abs(w.data - before).ravel(), "(lr = 0.05)")
