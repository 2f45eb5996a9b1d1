"""The bundled classifier: forward pass, losses, and exact gradients.

Builds a small tanh MLP, inspects its probability outputs, and checks the
analytic gradient of the client objective, lambda * (cross-entropy on a
pseudo-labeled batch) + (complementary loss on a negative batch), against
central finite differences.  Every call takes an (n, width) batch of one loss
kind; one sample is a batch of one row.
"""

import numpy as np

from fedseal import (
    ModelParams,
    batch_loss,
    forward_batch,
    gradient,
    init_params,
    predict_batch,
    stream,
)

rng = stream(0, "demo-classifier")
params = init_params((8, 16, 8, 4), rng)
print(f"network 8 -> 16 -> 8 -> 4, {params.values.size} {params.values.dtype} parameters")
# The network computes in its parameters' dtype.  Runs train in float32; the
# finite-difference check below needs float64 algebra, so cast up.
params = params.with_values(params.values.astype(np.float64))

x = rng.random((1, 8))
probs = forward_batch(params, x)[0]
print("sample input probabilities:", np.round(probs, 4), "sum =", probs.sum())
print("predicted class:", predict_batch(params, x)[0])

positive = batch_loss(params, x, [2])
negative = batch_loss(params, x, [2], negative=True)
print("\ncross-entropy if the true class were 2:   ", round(positive, 4))
print("complementary loss for 'is NOT class 2':", round(negative, 4))

# Two rows take cross-entropy on their pseudo-labels, two others the
# complementary loss on their "not this class" labels; lambda weighs the first.
lam = 0.4
pos_batch = (rng.random((2, 8)), rng.integers(0, 4, size=2))
neg_batch = (rng.random((2, 8)), rng.integers(0, 4, size=2), True)
analytic = lam * gradient(params, *pos_batch) + gradient(params, *neg_batch)


def objective(values):
    p = ModelParams(values, params.shapes)
    return lam * batch_loss(p, *pos_batch) + batch_loss(p, *neg_batch)


h = 1e-4
numeric = np.zeros_like(analytic)
for i in range(params.values.size):
    up, down = params.values.copy(), params.values.copy()
    up[i] += h
    down[i] -= h
    numeric[i] = (objective(up) - objective(down)) / (2 * h)

rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
print(f"\ngradient check on lambda * positive + negative: "
      f"relative error vs finite differences = {rel:.2e}")
assert rel < 1e-6, f"analytic gradient disagrees with finite differences: {rel:.2e}"
