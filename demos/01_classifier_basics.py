"""The bundled classifier: forward pass, losses, and exact gradients.

Builds a small tanh MLP, inspects its probability outputs, and checks the
analytic gradient of a mixed positive/negative batch against central finite
differences.  Every call takes an (n, width) batch; one sample is a batch of
one row.
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
print(f"network 8 -> 16 -> 8 -> 4, {params.values.size} parameters")

x = rng.random((1, 8))
probs = forward_batch(params, x)[0]
print("sample input probabilities:", np.round(probs, 4), "sum =", probs.sum())
print("predicted class:", predict_batch(params, x)[0])

positive = batch_loss(params, x, [2], False, 1.0)
negative = batch_loss(params, x, [2], True, 1.0)
print("\ncross-entropy if the true class were 2:   ", round(positive, 4))
print("complementary loss for 'is NOT class 2':", round(negative, 4))

# Four rows: the first two take cross-entropy on their label, the last two
# the complementary loss; every row weighs 1.
X = rng.random((4, 8))
labels = rng.integers(0, 4, size=4)
batch = (X, labels, np.array([False, False, True, True]), 1.0)
analytic = gradient(params, *batch)

h = 1e-4
numeric = np.zeros_like(analytic)
for i in range(params.values.size):
    up, down = params.values.copy(), params.values.copy()
    up[i] += h
    down[i] -= h
    numeric[i] = (
        batch_loss(ModelParams(up, params.shapes), *batch)
        - batch_loss(ModelParams(down, params.shapes), *batch)
    ) / (2 * h)

rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric))
print(f"\ngradient check on a mixed batch: relative error vs finite differences = {rel:.2e}")
