"""Small feed-forward classifier with exact analytic gradients.

The network is a plain MLP (tanh hidden layers, softmax head) over flat
feature vectors.  Parameters live in one flat vector plus layer shape
metadata, so a whole model can be averaged, diffed and shipped around as one
array; only :func:`_layer_views` knows how the layers pack into it, and the
model, :func:`init_params` and :func:`gradient` read and write through its
views.  The network computes in that vector's dtype: :func:`init_params`
makes float32, and float64 parameters give exact float64 algebra.  Rows of
another dtype (uint8 pixels, say) are converted a block or mini-batch at a time.

A :class:`ModelParams` is read-only; :func:`train`, the one SGD loop of
server, bootstrap and clients, owns a private copy of the parameters and a
velocity, which :func:`sgd_step` updates in place, and returns the copy as a
new ``ModelParams`` when the loop ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _float_rows

# Probabilities are clamped away from 0 and 1 before any log; keeps both
# loss functions finite on overconfident models.
PROB_FLOOR = 1e-12

# forward_batch runs the network over row blocks of this size, so a pass over
# a whole collection holds one block's activations at a time.  BLAS may round
# a row differently with the row count of its call, so changing the size can
# move the last bit of a probability, and with it the golden digests.
FORWARD_BLOCK_ROWS = 256


@dataclass
class ModelParams:
    """Flat float32 or float64 parameter vector plus per-layer (fan_in, fan_out) shapes.

    The network computes in the vector's dtype; any other dtype is coerced
    to float64.  ``layers`` holds the per-layer (W, b) views of the vector,
    sliced once, here.
    ``values`` is a read-only view of the array given, not a copy, so hand
    over an array that nothing writes afterwards.
    """

    values: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        values = values.view()
        expected = param_count(self.shapes)
        if values.ndim != 1 or values.size != expected:
            raise ValueError(
                f"parameter vector has length {values.size}, shapes imply {expected}"
            )
        values.flags.writeable = False
        self.values = values
        self.shapes = tuple((int(i), int(o)) for i, o in self.shapes)
        self.layers = _layer_views(values, self.shapes)

    @property
    def n_inputs(self) -> int:
        return self.shapes[0][0]

    @property
    def n_classes(self) -> int:
        return self.shapes[-1][1]

    def with_values(self, values: np.ndarray) -> "ModelParams":
        return ModelParams(values=values, shapes=self.shapes)


@dataclass
class SGDConfig:
    """Mini-batch momentum-SGD schedule; ``learning_rate`` is the current round's.

    The server's and the clients' schedules (``ServerConfig``,
    ``ClientConfig``) are this class plus their own keys.
    """

    epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.001
    lr_decay: float = 0.995  # applied once per round
    momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name, value in (("learning_rate", self.learning_rate), ("lr_decay", self.lr_decay)):
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def shapes_for(dims: tuple[int, ...] | list[int]) -> tuple[tuple[int, int], ...]:
    """Layer shapes for a dims chain like (784, 128, 64, 10)."""
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    return tuple((int(dims[i]), int(dims[i + 1])) for i in range(len(dims) - 1))


def param_count(shapes) -> int:
    return int(sum(i * o + o for i, o in shapes))


def _layer_views(values: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views of a flat vector packed W1, b1, W2, b2, ...; b has fan_out."""
    layers, offset = [], 0
    for fan_in, fan_out in shapes:
        bias = offset + fan_in * fan_out
        w, b = values[offset:bias], values[bias : bias + fan_out]
        layers.append((w.reshape(fan_in, fan_out), b))
        offset = bias + fan_out
    return layers


def init_params(dims, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in layer order from ``rng``.

    The float64 draws are cast as they are written into a zeroed float32 vector.
    """
    shapes = shapes_for(dims)
    values = np.zeros(param_count(shapes), dtype=np.float32)
    for w, _ in _layer_views(values, shapes):
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return ModelParams(values=values, shapes=shapes)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Probs plus the per-layer inputs needed for backprop."""
    inputs, a = [x], x
    for w, b in params.layers[:-1]:
        a = np.tanh(a @ w + b)
        inputs.append(a)
    w, b = params.layers[-1]
    return _softmax(a @ w + b), inputs


def _features(params: ModelParams, X, rows=slice(None)) -> np.ndarray:
    """Rows ``rows`` of ``X``, an (n, width) matrix of the network's input
    width, in the parameters' dtype.

    Rows already in that dtype are not copied; others (uint8 pixels, through
    ``data._float_rows``) are, so a pass over many rows takes them a block at a time.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != params.n_inputs:
        got = X.shape[1] if X.ndim == 2 else X.shape
        raise ValueError(
            f"feature width mismatch: network expects {params.n_inputs}, got {got}"
        )
    return _float_rows(X[rows]).astype(params.values.dtype, copy=False)


def forward_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability rows for a (n, width) feature matrix.

    The rows go through the network, cast to the parameters' dtype where
    they differ from it, ``FORWARD_BLOCK_ROWS`` at a time; the probabilities
    have that dtype.
    """
    X = np.asarray(features)
    _features(params, X, slice(0))  # checks the width, even of an empty matrix
    probs = np.empty((X.shape[0], params.n_classes), dtype=params.values.dtype)
    for start in range(0, X.shape[0], FORWARD_BLOCK_ROWS):
        block = slice(start, start + FORWARD_BLOCK_ROWS)
        probs[block] = _forward_cached(params, _features(params, X, block))[0]
    return probs


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    # np.argmax takes the first maximum, i.e. the lowest class index on ties.
    return np.argmax(forward_batch(params, features), axis=1)


def _batch_arrays(params: ModelParams, X, labels):
    X = _features(params, X)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch; callers must skip empty loss components")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"{labels.size} labels for {n} rows")
    if labels.min() < 0 or labels.max() >= params.n_classes:
        bad = labels[(labels < 0) | (labels >= params.n_classes)][0]
        raise ValueError(f"label {bad} out of range [0, {params.n_classes})")
    return X, labels


def batch_loss(params: ModelParams, X, labels, negative=False) -> float:
    """Mean loss of one kind over a batch.

    ``X`` is an (n, width) feature matrix and ``labels`` the n class labels.
    Every row takes cross-entropy on its label, -log p, or with ``negative``
    the complementary loss, -log(1 - p) (NLNL, arXiv 1908.07387).
    """
    X, labels = _batch_arrays(params, X, labels)
    p = forward_batch(params, X)[np.arange(len(labels)), labels]
    return float(-np.log(np.clip(1.0 - p if negative else p, PROB_FLOOR, 1.0)).mean())


def gradient(params: ModelParams, X, labels, negative=False) -> np.ndarray:
    """Analytic gradient of ``batch_loss`` with respect to the flat vector.

    The gradient has the parameters' dtype; each layer writes into its views.
    """
    X, labels = _batch_arrays(params, X, labels)
    probs, inputs = _forward_cached(params, X)
    rows = np.arange(len(labels))
    p = probs[rows, labels]

    # d(loss)/d(logits) per row; clamped rows have a locally constant loss,
    # hence zero gradient.
    if negative:
        q = 1.0 - p
        scale = np.where(q < PROB_FLOOR, 0.0, p / np.maximum(q, PROB_FLOOR))
        delta = -scale[:, None] * probs
        delta[rows, labels] += scale
    else:  # p - onehot, in place: nothing reads probs again
        delta = probs
        delta[rows, labels] -= 1.0
        delta[p < PROB_FLOOR] = 0.0
    # Scale by 1/n rather than divide by n: runs are pinned to these bytes.
    delta *= 1.0 / len(labels)

    grad = np.empty_like(params.values)
    grads = _layer_views(grad, params.shapes)
    for idx in reversed(range(len(grads))):
        (grad_w, grad_b), a_in = grads[idx], inputs[idx]
        np.sum(delta, axis=0, out=grad_b)
        np.matmul(a_in.T, delta, out=grad_w)
        if idx > 0:
            delta = (delta @ params.layers[idx][0].T) * (1.0 - a_in * a_in)
    return grad


def sgd_step(values, velocity, grad, cfg: SGDConfig, scratch) -> None:
    """One momentum-SGD update of ``values`` and ``velocity``, in place.

    ``velocity = momentum * velocity + grad``, then ``values -= learning_rate
    * velocity``, with the product written to ``scratch``, so a step
    allocates no parameter-sized array.  ``grad`` is not written, and must
    have the dtype of ``values``: a cast would allocate a parameter-sized copy.
    """
    if grad.shape != values.shape:
        raise ValueError(
            f"gradient length {grad.size} does not match parameter length {values.size}"
        )
    if grad.dtype != values.dtype:
        raise ValueError(
            f"gradient dtype {grad.dtype} does not match parameter dtype {values.dtype}"
        )
    velocity *= cfg.momentum
    velocity += grad
    values -= np.multiply(velocity, cfg.learning_rate, out=scratch)
    if not np.isfinite(values).all():
        raise FloatingPointError("non-finite parameter values after SGD step")


def train(model: ModelParams, cfg: SGDConfig, rng: np.random.Generator, X, terms) -> ModelParams:
    """Mini-batch momentum SGD on a weighted sum of losses over rows of ``X``.

    A term is ``(rows, labels, weight, negative, augment_fn)``: positions in
    ``X``, their labels, a loss weight and kind (see :func:`batch_loss`), and
    an optional ``augment_fn(batch, rng)``.  Terms with no rows or zero weight
    drop out; with none left the model is returned untouched.  Each epoch
    draws one ``rng.permutation`` per term, in term order; batch b sums, in
    term order, the weighted gradient of the b-th slice of each permutation.
    """
    terms = [term for term in terms if len(term[0]) and term[2] != 0.0]
    if not terms:
        return model
    size, longest = cfg.batch_size, max(len(term[0]) for term in terms)
    # A private copy that only sgd_step writes; gradients read it through
    # the read-only view ``live``, which is also the trained model returned.
    values = model.values.copy()
    velocity, scratch = np.zeros_like(values), np.empty_like(values)
    live = model.with_values(values)
    for _ in range(cfg.epochs):
        shuffled = []
        for rows, labels, *rest in terms:
            order = rng.permutation(len(rows))
            shuffled.append((rows[order], labels[order], *rest))
        for lo in range(0, longest, size):
            grad = None
            for rows, labels, weight, negative, augment_fn in shuffled:
                if lo >= len(rows):
                    continue
                x = X[rows[lo : lo + size]]
                if augment_fn is not None:
                    x = augment_fn(x, rng)
                term_grad = gradient(live, x, labels[lo : lo + size], negative=negative)
                if weight != 1.0:
                    term_grad *= weight
                grad = term_grad if grad is None else np.add(grad, term_grad, out=grad)
            sgd_step(values, velocity, grad, cfg, scratch)
    return live
