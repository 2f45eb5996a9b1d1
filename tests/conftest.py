"""Shared test helpers: finite differences, forced RNGs, tiny datasets,
reference oracles."""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from fedseal import Collection, ModelParams, batch_loss, init_params, run_round, start, stream


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


def reference_loss(label: int, confidence: np.ndarray, negative: bool) -> float:
    """Per-row oracle for batch_loss: -log(1 - p[label]) if negative, else -log p[label]."""
    p = 1.0 - confidence[label] if negative else confidence[label]
    return float(-np.log(np.clip(p, 1e-12, 1.0)))


def labeled_rows(n: int, width: int, n_classes: int, seed: int) -> Collection:
    rng = stream(seed, "test-instances")
    X = np.empty((n, width))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = rng.random(width)
        y[i] = rng.integers(0, n_classes)
    return Collection(X, y)


def run_all_rounds(cfg):
    """``start(cfg)``, then every round: (records, final state)."""
    state = start(cfg)
    records = []
    for t in range(1, cfg.rounds + 1):
        state, record = run_round(state, t)
        records.append(record)
    return records, state


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


# ---------------------------------------------------------------------------
# Per-row augmentation references: each op on one image or vector row, with
# its parameters given explicitly, and whole-batch oracles built from them.
# ---------------------------------------------------------------------------


def ref_flip(img: np.ndarray) -> np.ndarray:
    return img[:, ::-1]


def ref_crop(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Same-size window at offset (dy, dx) in [0, 4] of the image zero-padded by 2."""
    h, w = img.shape
    padded = np.zeros((h + 4, w + 4))
    padded[2 : 2 + h, 2 : 2 + w] = img
    return padded[dy : dy + h, dx : dx + w]


def ref_rotate(img: np.ndarray, angle: float) -> np.ndarray:
    return ndimage.rotate(img, angle, reshape=False, order=1, mode="constant", cval=0.0)


def ref_translate(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """out[i, j] = img[i - dy, j - dx] for dy, dx in [-3, 3], zero where undefined.

    Padding by 3 keeps every slice in range, also on images smaller than the
    shift.
    """
    h, w = img.shape
    padded = np.zeros((h + 6, w + 6))
    padded[3 : 3 + h, 3 : 3 + w] = img
    return padded[3 - dy : 3 - dy + h, 3 - dx : 3 - dx + w]


def ref_cutout(img: np.ndarray, top: int, left: int) -> np.ndarray:
    h, w = img.shape
    out = img.copy()
    out[top : top + max(1, h // 2), left : left + max(1, w // 2)] = 0.5
    return out


def ref_vector_cutout(x: np.ndarray, start: int) -> np.ndarray:
    out = x.copy()
    out[start : start + max(1, x.size // 4)] = 0.5
    return out


def ref_contrast(x: np.ndarray, c: float) -> np.ndarray:
    return 0.5 + c * (x - 0.5)


def ref_noise(x: np.ndarray, noise: np.ndarray) -> np.ndarray:
    return x + noise


def reference_weak_vector(x: np.ndarray, rng) -> np.ndarray:
    """Per-row weak augmentation of one vector row."""
    return np.clip(ref_noise(x, rng.normal(0.0, 0.05, size=x.shape)), 0.0, 1.0)


def reference_strong_vectors(X: np.ndarray, rng) -> np.ndarray:
    """Strong vector augmentation row by row, from the batch draws.

    As :func:`reference_strong_images`: the (n, 2) op codes, then per slot
    and op in pool order (noise, cutout, contrast) one draw for its rows.
    """
    w = X.shape[1]
    span = max(1, w // 4)
    rows = [x.copy() for x in X]
    ops = rng.integers(0, 3, size=(len(X), 2))
    per_op = [
        (lambda k: rng.normal(0.0, 0.1, size=(k, 1, w)), lambda x, p: ref_noise(x, p[0])),
        (lambda k: rng.integers(0, [1, w - span + 1], size=(k, 2)),
         lambda x, p: ref_vector_cutout(x, p[1])),
        (lambda k: 1.0 + rng.uniform(-0.4, 0.4, size=k), ref_contrast),
    ]
    for slot in range(2):
        for code, (draw, op) in enumerate(per_op):
            picked = np.flatnonzero(ops[:, slot] == code)
            if picked.size:
                for r, p in zip(picked, draw(picked.size)):
                    rows[r] = op(rows[r], p)
    return np.clip(np.array(rows).reshape(X.shape), 0.0, 1.0)


def reference_weak_images(X: np.ndarray, rng, shape) -> np.ndarray:
    """Weak image augmentation row by row, from the batch draws: flip mask, offsets."""
    flips = rng.random(len(X)) < 0.5
    offsets = rng.integers(0, 5, size=(len(X), 2))
    out = []
    for x, flip, (dy, dx) in zip(X, flips, offsets):
        img = x.reshape(shape)
        out.append(ref_crop(ref_flip(img) if flip else img, dy, dx).ravel())
    return np.clip(np.array(out), 0.0, 1.0)


def reference_strong_images(X: np.ndarray, rng, shape) -> np.ndarray:
    """Strong image augmentation row by row, from the batch draws.

    The (n, 2) op codes come first; then, for each slot and each op in pool
    order, one draw holds the parameters of every row that picked that op.
    """
    h, w = shape
    mh, mw = max(1, h // 2), max(1, w // 2)
    imgs = [x.reshape(shape) for x in X]
    ops = rng.integers(0, 7, size=(len(X), 2))
    per_op = [
        (lambda k: [None] * k, lambda img, p: ref_flip(img)),
        (lambda k: rng.integers(0, 5, size=(k, 2)), lambda img, p: ref_crop(img, *p)),
        (lambda k: rng.uniform(-15.0, 15.0, size=k), ref_rotate),
        (lambda k: rng.integers(-3, 4, size=(k, 2)), lambda img, p: ref_translate(img, *p)),
        (lambda k: rng.integers(0, [h - mh + 1, w - mw + 1], size=(k, 2)),
         lambda img, p: ref_cutout(img, *p)),
        (lambda k: 1.0 + rng.uniform(-0.4, 0.4, size=k), ref_contrast),
        (lambda k: rng.normal(0.0, 0.1, size=(k, h, w)), ref_noise),
    ]
    for slot in range(2):
        for code, (draw, op) in enumerate(per_op):
            rows = np.flatnonzero(ops[:, slot] == code)
            if rows.size:
                for r, p in zip(rows, draw(rows.size)):
                    imgs[r] = op(imgs[r], p)
    return np.clip(np.array([img.ravel() for img in imgs]), 0.0, 1.0)


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
