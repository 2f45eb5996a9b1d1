"""Shared test helpers: finite differences, forced RNGs, tiny datasets,
reference oracles."""

from __future__ import annotations

import numpy as np

from fedseal import Collection, ModelParams, batch_loss, init_params, stream


def fd_gradient(params: ModelParams, loss_fn, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of any scalar loss over the flat vector."""
    grad = np.zeros(params.values.size)
    for i in range(params.values.size):
        up = params.values.copy()
        up[i] += h
        down = params.values.copy()
        down[i] -= h
        grad[i] = (
            loss_fn(ModelParams(up, params.shapes)) - loss_fn(ModelParams(down, params.shapes))
        ) / (2 * h)
    return grad


def fd_batch_gradient(params: ModelParams, batch, h: float = 1e-4) -> np.ndarray:
    return fd_gradient(params, lambda p: batch_loss(p, *batch), h)


def rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(analytic - reference))) / scale


def make_params(dims, seed: int = 0) -> ModelParams:
    return init_params(dims, stream(seed, "test-params"))


def random_batch(params: ModelParams, n: int, seed: int, mixed: bool = True):
    """Random (X, labels, negative, weights) batch; odd rows negative if mixed."""
    rng = stream(seed, "test-batch")
    X = np.empty((n, params.n_inputs))
    labels = np.empty(n, dtype=np.int64)
    weights = np.empty(n)
    for i in range(n):
        X[i] = rng.random(params.n_inputs)
        labels[i] = rng.integers(0, params.n_classes)
        weights[i] = rng.uniform(0.2, 2.0)
    negative = (np.arange(n) % 2 == 1) & mixed
    return X, labels, negative, weights


def labeled_rows(n: int, width: int, n_classes: int, seed: int) -> Collection:
    rng = stream(seed, "test-instances")
    X = np.empty((n, width))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = rng.random(width)
        y[i] = rng.integers(0, n_classes)
    return Collection(np.arange(n), X, y)


def reference_negative_set(conf: np.ndarray, taus, theta: float, rng) -> list[tuple[int, int]]:
    """Per-row oracle for build_negative_set: one scalar draw per eligible row."""
    out = []
    for i, row in enumerate(conf):
        label = int(np.argmax(row))
        if row[label] >= taus[label]:
            continue
        candidates = np.flatnonzero(row <= theta)
        if candidates.size == 0:
            continue
        out.append((i, int(candidates[rng.integers(0, candidates.size)])))
    return out


class ForcedRng:
    """Duck-typed generator returning scripted draws, for deterministic paths."""

    def __init__(self, randoms=(), integers=(), uniforms=(), normal_value=0.0):
        self._randoms = list(randoms)
        self._integers = list(integers)
        self._uniforms = list(uniforms)
        self._normal_value = normal_value

    def random(self, size=None):
        value = self._randoms.pop(0)
        return value if size is None else np.full(size, value)

    def integers(self, low, high, size=None):
        value = self._integers.pop(0)
        if size is None:
            return int(value)
        return np.asarray(value, dtype=np.int64).reshape(size if np.ndim(size) else (size,))

    def uniform(self, low, high, size=None):
        value = self._uniforms.pop(0)
        return value if size is None else np.full(size, value)

    def normal(self, loc, scale, size=None):
        return np.full(size, self._normal_value) if size is not None else self._normal_value
