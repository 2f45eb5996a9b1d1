"""Small feed-forward classifier with exact analytic gradients.

The network is a plain MLP (tanh hidden layers, softmax head) over flat
feature vectors.  Parameters live in a single flat float64 vector plus layer
shape metadata, so a whole model can be averaged, diffed and shipped around
as one array.  A :class:`ModelParams` is read-only; training works on a
private copy inside an :class:`OptimizerState`, which :func:`sgd_step`
updates in place and which becomes a new ``ModelParams`` when the loop ends.

Alternate backbones only need to reproduce the call signatures of
``init_params`` / ``forward`` / ``predict`` / ``gradient``; the rest of the
package is indifferent to what is inside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped away from 0 and 1 before any log; keeps both
# loss functions finite on overconfident models.
PROB_FLOOR = 1e-12


@dataclass
class ModelParams:
    """Flat parameter vector plus per-layer (fan_in, fan_out) shapes.

    Bias length per layer equals fan_out; packing order is W1, b1, W2, b2, ...
    """

    values: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        expected = param_count(self.shapes)
        if values.ndim != 1 or values.size != expected:
            raise ValueError(
                f"parameter vector has length {values.size}, shapes imply {expected}"
            )
        values.flags.writeable = False
        self.values = values
        self.shapes = tuple((int(i), int(o)) for i, o in self.shapes)

    @property
    def n_inputs(self) -> int:
        return self.shapes[0][0]

    @property
    def n_classes(self) -> int:
        return self.shapes[-1][1]

    def with_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(values=values, shapes=self.shapes)


def _wrap(values: np.ndarray, shapes) -> ModelParams:
    """A ModelParams over the read-only ``values`` itself, without a copy."""
    params = object.__new__(ModelParams)
    params.values = values
    params.shapes = shapes
    return params


class OptimizerState:
    """SGD with momentum on a private copy of one model's parameters.

    :func:`sgd_step` updates the copy and ``velocity`` in place.  ``params``
    is a read-only view of the copy, so a gradient taken through it always
    sees the current values.  :meth:`result` freezes the copy and returns it
    as the trained model, after which the state takes no more steps.  Each
    training loop owns its state, so client threads share no buffers.
    """

    def __init__(self, params: ModelParams, learning_rate: float, momentum: float):
        if learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._values = params.values.copy()
        self._scratch = np.empty_like(self._values)
        self.velocity = np.zeros_like(self._values)
        view = self._values.view()
        view.flags.writeable = False
        self.params = _wrap(view, params.shapes)

    def result(self) -> ModelParams:
        self._values.flags.writeable = False
        return _wrap(self._values, self.params.shapes)


def shapes_for(dims: tuple[int, ...] | list[int]) -> tuple[tuple[int, int], ...]:
    """Layer shapes for a dims chain like (784, 128, 64, 10)."""
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    return tuple((int(dims[i]), int(dims[i + 1])) for i in range(len(dims) - 1))


def param_count(shapes) -> int:
    return int(sum(i * o + o for i, o in shapes))


def init_params(dims, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in layer order from ``rng``."""
    shapes = shapes_for(dims)
    chunks = []
    for fan_in, fan_out in shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(values=np.concatenate(chunks), shapes=shapes)


def zero_params(dims) -> ModelParams:
    shapes = shapes_for(dims)
    return ModelParams(values=np.zeros(param_count(shapes)), shapes=shapes)


def unflatten(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into the flat vector."""
    layers = []
    offset = 0
    for fan_in, fan_out in params.shapes:
        w = params.values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params.values[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Probs plus the per-layer inputs needed for backprop."""
    layers = unflatten(params)
    inputs = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.tanh(a @ w + b)
        inputs.append(a)
    w, b = layers[-1]
    probs = _softmax(a @ w + b)
    return probs, inputs, layers


def forward_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability rows for a (n, width) feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.n_inputs:
        got = features.shape[1] if features.ndim == 2 else features.shape
        raise ValueError(
            f"feature width mismatch: network expects {params.n_inputs}, got {got}"
        )
    probs, _, _ = _forward_cached(params, features)
    return probs


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Predicted class-probability distribution for one feature vector."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 1:
        raise ValueError(f"expected a 1-d feature vector, got shape {features.shape}")
    if features.size != params.n_inputs:
        raise ValueError(
            f"feature width mismatch: network expects {params.n_inputs}, got {features.size}"
        )
    return forward_batch(params, features[None, :])[0]


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    # np.argmax takes the first maximum, i.e. the lowest class index on ties.
    return np.argmax(forward_batch(params, features), axis=1)


def predict(params: ModelParams, features: np.ndarray) -> int:
    """Argmax class of ``forward``; ties break to the lowest class index."""
    return int(np.argmax(forward(params, features)))


def _check_label(label: int, n_classes: int, what: str) -> int:
    label = int(label)
    if not 0 <= label < n_classes:
        raise ValueError(f"{what} {label} out of range [0, {n_classes})")
    return label


def cross_entropy(label: int, confidence: np.ndarray) -> float:
    """-log p[label], with the probability floored at PROB_FLOOR."""
    confidence = np.asarray(confidence, dtype=np.float64)
    label = _check_label(label, confidence.size, "label")
    return float(-np.log(np.clip(confidence[label], PROB_FLOOR, 1.0)))


def negative_cross_entropy(comp_label: int, confidence: np.ndarray) -> float:
    """-log(1 - p[comp_label]): loss for 'this is NOT class comp_label'."""
    confidence = np.asarray(confidence, dtype=np.float64)
    comp_label = _check_label(comp_label, confidence.size, "complementary label")
    return float(-np.log(np.clip(1.0 - confidence[comp_label], PROB_FLOOR, 1.0)))


def _batch_arrays(params: ModelParams, X, labels, negative, weights):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        got = X.shape[1] if X.ndim == 2 else X.shape
        raise ValueError(
            f"feature width mismatch: network expects {params.n_inputs}, got {got}"
        )
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch; callers must skip empty loss components")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"{labels.size} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= params.n_classes:
        bad = labels[(labels < 0) | (labels >= params.n_classes)][0]
        raise ValueError(f"label {bad} out of range [0, {params.n_classes})")
    negative = np.broadcast_to(np.asarray(negative, dtype=bool), (n,))
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (n,))
    return X, labels, negative, weights


def batch_loss(params: ModelParams, X, labels, negative, weights) -> float:
    """Weighted mean loss over a mixed positive/negative batch.

    ``X`` is an (n, width) feature matrix and ``labels`` the n class labels.
    Rows where ``negative`` is true take the complementary loss on their
    label, the rest cross-entropy; ``negative`` and ``weights`` are per-row
    arrays or one value for every row.  The mean is weight-normalized (sum
    of w_i * loss_i over sum of w_i), so a duplicated row is interchangeable
    with doubling its weight.  A batch with all-zero weights has loss 0 by
    convention.
    """
    X, labels, negative, weights = _batch_arrays(params, X, labels, negative, weights)
    total = weights.sum()
    if total == 0.0:
        return 0.0
    probs = forward_batch(params, X)
    p = probs[np.arange(len(labels)), labels]
    losses = np.where(
        negative,
        -np.log(np.clip(1.0 - p, PROB_FLOOR, 1.0)),
        -np.log(np.clip(p, PROB_FLOOR, 1.0)),
    )
    return float((weights * losses).sum() / total)


def gradient(params: ModelParams, X, labels, negative, weights) -> np.ndarray:
    """Analytic gradient of ``batch_loss`` with respect to the flat vector."""
    X, labels, negative, weights = _batch_arrays(params, X, labels, negative, weights)
    total = weights.sum()
    if total == 0.0:
        return np.zeros(params.values.size)

    probs, inputs, layers = _forward_cached(params, X)
    rows = np.arange(len(labels))
    p = probs[rows, labels]

    # d(loss)/d(logits) per row, before weighting.  Positive rows: p - onehot.
    grad_z = probs.copy()
    grad_z[rows, labels] -= 1.0
    # Clamped rows have a locally constant loss, hence zero gradient.
    grad_z[~negative & (p < PROB_FLOOR)] = 0.0
    if negative.any():
        pc = p[negative]
        q = 1.0 - pc
        scale = np.where(q < PROB_FLOOR, 0.0, pc / np.maximum(q, PROB_FLOOR))
        g = -scale[:, None] * probs[negative]
        g[np.arange(scale.size), labels[negative]] += scale
        grad_z[negative] = g

    grad_z *= (weights / total)[:, None]

    grads = []
    delta = grad_z
    for idx in range(len(layers) - 1, -1, -1):
        w, _ = layers[idx]
        a_in = inputs[idx]
        grads.append(delta.sum(axis=0))  # bias
        grads.append((a_in.T @ delta).ravel())  # weights
        if idx > 0:
            delta = (delta @ w.T) * (1.0 - a_in * a_in)
    grads.reverse()
    return np.concatenate(grads)


def sgd_step(opt: OptimizerState, grad: np.ndarray) -> None:
    """One momentum-SGD update of ``opt``'s parameters and velocity, in place."""
    if not opt._values.flags.writeable:
        raise RuntimeError("optimizer state already handed out its result")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != opt._values.shape:
        raise ValueError(
            f"gradient length {grad.size} does not match parameter length {opt._values.size}"
        )
    velocity = opt.velocity
    velocity *= opt.momentum
    velocity += grad
    np.multiply(velocity, opt.learning_rate, out=opt._scratch)
    opt._values -= opt._scratch
    if not np.isfinite(opt._values).all():
        raise FloatingPointError("non-finite parameter values after SGD step")
