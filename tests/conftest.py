"""Shared test helpers: finite differences, forced RNGs, tiny datasets, IDX
and CSV files, child processes, reference oracles."""

from __future__ import annotations

import os
import struct
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

from fedseal import (
    Collection, ModelParams, RoundRecord, batch_loss, init_params, nn, run_round, start, stream,
)
from fedseal.data import _float_rows
from fedseal.experiment import RECIPES

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYNTHETIC = REPO_ROOT / "configs" / "synthetic_small.ini"

# Every property test draws the same examples on every run, keeps no example
# database and has no deadline; a test sets only its max_examples.
settings.register_profile("fedseal", deadline=None, derandomize=True, database=None)
settings.load_profile("fedseal")


def write_idx(path, array) -> None:
    """Write ``array`` as a valid IDX file of uint8 data, what ``data._read_idx`` reads.

    The header is the magic ``0x0800 | ndim`` and then each dim, as big-endian
    uint32s; the body is the array's values cast to uint8, in row-major order.
    """
    array = np.asarray(array).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", 0x0800 | array.ndim, *array.shape))
        f.write(array.tobytes())


def write_csv(features, labels, path) -> None:
    """Write rows as a CSV that ``data.ingest_csv`` reads back exactly.

    The header is ``label,f0,f1,...``; each row is its integer label and then
    its features, each written with ``repr(float(v))`` so no bit is lost.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(features.shape[1])) + "\n")
        for x, label in zip(features, labels):
            f.write(f"{int(label)}," + ",".join(repr(float(v)) for v in x) + "\n")


def child_env(**extra) -> dict:
    """The environment of a child process that imports fedseal from this checkout."""
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **extra)


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


def make_params(dims, seed: int = 0, dtype=np.float32) -> ModelParams:
    """``init_params`` on a test stream; float64 gives exact float64 algebra."""
    params = init_params(dims, stream(seed, "test-params"))
    return params.with_values(params.values.astype(dtype))


@pytest.fixture
def float64_params(monkeypatch):
    """Runs in the test bootstrap float64 parameters, so they train in float64."""
    init = nn.init_params

    def init_float64(dims, rng):
        params = init(dims, rng)
        return params.with_values(params.values.astype(np.float64))

    monkeypatch.setattr(nn, "init_params", init_float64)


# ---------------------------------------------------------------------------
# The network's earlier parameter packing, kept as a reference: each layer's
# chunk drawn or computed on its own, then the chunks concatenated in W1, b1,
# W2, b2, ... order.
# ---------------------------------------------------------------------------


def reference_init_params(dims, rng) -> ModelParams:
    """init_params as a chunk list: float64 draws, concatenated, cast once."""
    shapes = nn.shapes_for(dims)
    chunks = []
    for fan_in, fan_out in shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(values=np.concatenate(chunks).astype(np.float32), shapes=shapes)


def reference_forward(params: ModelParams, X):
    """(per-layer (W, b), per-layer inputs, class probabilities) of rows ``X``,
    with the layers sliced at their own offsets."""
    layers, offset = [], 0
    for fan_in, fan_out in params.shapes:
        w = params.values[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, params.values[offset : offset + fan_out]))
        offset += fan_out
    X = np.asarray(X).astype(params.values.dtype, copy=False)
    inputs, a = [X], X
    for idx, (w, b) in enumerate(layers):
        z = a @ w + b
        if idx < len(layers) - 1:
            a = np.tanh(z)
            inputs.append(a)
    exps = np.exp(z - z.max(axis=-1, keepdims=True))
    return layers, inputs, exps / exps.sum(axis=-1, keepdims=True)


def reference_gradient(params: ModelParams, X, labels, negative=False) -> np.ndarray:
    """gradient from :func:`reference_forward`, with the per-layer gradients
    appended last layer first, reversed and concatenated."""
    layers, inputs, probs = reference_forward(params, X)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(labels))
    p = probs[rows, labels]
    if negative:
        q = 1.0 - p
        scale = np.where(q < nn.PROB_FLOOR, 0.0, p / np.maximum(q, nn.PROB_FLOOR))
        grad_z = -scale[:, None] * probs
        grad_z[rows, labels] += scale
    else:
        grad_z = probs.copy()
        grad_z[rows, labels] -= 1.0
        grad_z[p < nn.PROB_FLOOR] = 0.0
    grad_z *= 1.0 / len(labels)
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


def random_batch(params: ModelParams, n: int, seed: int, negative: bool = False):
    """Random (X, labels, negative) batch of one loss kind."""
    rng = stream(seed, "test-batch")
    X = np.empty((n, params.n_inputs))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = rng.random(params.n_inputs)
        labels[i] = rng.integers(0, params.n_classes)
    return X, labels, negative


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


def reference_aggregate(models: list[ModelParams]) -> np.ndarray:
    """Oracle for aggregate: first + the stacked mean of the deltas from it."""
    first = models[0].values
    return first + np.stack([m.values - first for m in models]).mean(axis=0)


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


def _reference_train(model: ModelParams, cfg, rng, X, terms) -> ModelParams:
    """nn.train as a plain loop over ``(rows, labels, weight, negative, augment)``
    terms: a term with no rows or weight draws nothing; each epoch draws one
    permutation per term, then each batch sums every term's weighted slice
    gradient and takes one momentum step."""
    terms = [term for term in terms if len(term[0]) and term[2] != 0.0]
    values, velocity = model.values.copy(), np.zeros(model.values.size)
    for _ in range(cfg.epochs if terms else 0):
        orders = [rng.permutation(len(rows)) for rows, *_ in terms]
        for lo in range(0, max(len(rows) for rows, *_ in terms), cfg.batch_size):
            grad = np.zeros_like(values)
            for (rows, labels, weight, negative, augment), order in zip(terms, orders):
                batch = order[lo : lo + cfg.batch_size]
                if len(batch):
                    x = X[rows[batch]] if augment is None else augment(X[rows[batch]], rng)
                    grad += weight * reference_gradient(
                        model.with_values(values), x, labels[batch], negative)
            velocity = cfg.momentum * velocity + grad
            values = values - cfg.learning_rate * velocity
    return model.with_values(values)


def _pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(rows, labels) arrays of a list of (row, label) pairs."""
    return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


def reference_round(state, rounds: int):
    """``rounds`` rounds of README's four steps from ``state``, as plain loops
    over the references with the same ``rng.stream`` keys.

    Pixels enter as the float32 rows ``data._float_rows`` makes of them, and
    image data augments through the per-row image references.  ``state`` is
    only read.  Returns the RoundRecords, and what ``run_round`` leaves in its
    state: ``global_params``, ``ensembles`` (each the plain mean of every
    broadcast model's outputs on a shard), ``upload_mean`` (of the last
    round's uploads, None without any), ``server_lr`` and ``client_lr``.
    """
    cfg, split, shape = state.cfg, state.split, state.cfg.data.image_shape
    recipe = RECIPES[cfg.algorithm]
    labeled, val, test = (Collection(_float_rows(c.X), c.y)
                          for c in (split.server_train, split.server_val, split.test))
    shards = [_float_rows(shard) for shard in split.client_train]

    def probs(model, X):
        return reference_forward(model, X)[2]

    if shape is None:
        def weak(X, rng):
            return np.array([reference_weak_vector(x, rng) for x in X])
        strong = reference_strong_vectors
    else:
        weak = partial(reference_weak_images, shape=shape)
        strong = partial(reference_strong_images, shape=shape)

    w, uploads, broadcast, records = state.global_params, [], [], []
    server_lr, client_lr = state.server_lr, state.client_lr
    ensembles = [None] * cfg.n_clients
    for t in range(1, rounds + 1):
        # 1. Server: aggregate, weakly augmented SGD, per-class thresholds.
        if uploads:
            w = w.with_values(reference_aggregate(uploads))
        server_cfg = replace(cfg.server, learning_rate=server_lr)
        w = _reference_train(w, server_cfg, stream(cfg.seed, "server", t), labeled.X,
                             [(np.arange(len(labeled.y)), labeled.y, 1.0, False, weak)])
        conf = probs(w, val.X)
        taus = [min(1.0, conf[conf.argmax(axis=1) == m, m].sum() / (val.y == m).sum())
                if (val.y == m).any() else 1.0 for m in range(w.n_classes)]
        # 2. Broadcast: every client's ensemble takes the new model.
        broadcast.append(w)
        if recipe.labels == "ensemble":
            ensembles = [np.mean([probs(b, shard) for b in broadcast], axis=0)
                         for shard in shards]
        # 3. The sampled clients filter and train; 4. they upload.
        ramp = cfg.client.lambda_max * min(1.0, t / cfg.client.lambda_ramp_rounds)
        lam = (ramp if recipe.ramp else 1.0) if recipe.labels in ("ensemble", "model") else None
        client_cfg = replace(cfg.client, learning_rate=client_lr)
        client_taus = [cfg.fixmatch_threshold] * w.n_classes if recipe.fixed_threshold else taus
        sampled = [] if recipe.labels is None else sorted(stream(cfg.seed, "sample", t).choice(
            cfg.n_clients, size=cfg.clients_per_round, replace=False))
        uploads, sets = [], []
        for k in sampled:
            shard, hidden, rng = shards[k], split.hidden_labels(k), stream(cfg.seed, "client", k, t)
            if recipe.labels == "hidden":
                terms, pos, neg = [(np.arange(len(shard)), hidden, 1.0, False, weak)], [], []
            else:
                conf = ensembles[k] if recipe.labels == "ensemble" else probs(w, shard)
                pos = [(i, int(np.argmax(row))) for i, row in enumerate(conf)
                       if row.max() >= client_taus[int(np.argmax(row))]]
                neg = reference_negative_set(conf, client_taus, cfg.client.theta, stream(
                    cfg.seed, "negative", k, t)) if recipe.negative else []
                terms = [(*_pairs(pos), lam, False, strong),
                         (*_pairs(neg), 1.0, True, None)]
            uploads.append(_reference_train(w, client_cfg, rng, shard, terms))
            sets.append((hidden, pos, neg))
        pos_hits = [hidden[i] == y for hidden, pos, _ in sets for i, y in pos]
        neg_hits = [hidden[i] != y for hidden, _, neg in sets for i, y in neg]
        records.append(RoundRecord(
            round=t,
            test_accuracy=float(np.mean(probs(w, test.X).argmax(axis=1) == test.y)),
            taus=tuple(taus),
            pos_sizes=tuple(len(pos) for _, pos, _ in sets),
            neg_sizes=tuple(len(neg) for *_, neg in sets),
            pos_correct_rate=float(np.mean(pos_hits)) if pos_hits else None,
            neg_correct_rate=float(np.mean(neg_hits)) if neg_hits else None,
            lambda_weight=lam,
        ))
        server_lr *= cfg.server.lr_decay
        client_lr *= cfg.client.lr_decay
    return records, SimpleNamespace(
        global_params=w, ensembles=ensembles, server_lr=server_lr, client_lr=client_lr,
        upload_mean=reference_aggregate(uploads) if uploads else None)


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


# Each reference takes float rows, as data._float_rows makes them, and rounds
# each op's result to their dtype, the one augmentation keeps.


def reference_weak_vector(x: np.ndarray, rng) -> np.ndarray:
    """Per-row weak augmentation of one vector row."""
    noisy = ref_noise(x, rng.normal(0.0, 0.05, size=x.shape)).astype(x.dtype)
    return np.clip(noisy, 0.0, 1.0)


def reference_strong_vectors(X: np.ndarray, rng) -> np.ndarray:
    """Strong vector augmentation row by row, from the batch draws.

    As :func:`reference_strong_images`: the (n, 2) op codes, then per slot
    and op in pool order (noise, cutout, contrast) one draw for its rows.
    """
    w = X.shape[1]
    span = max(1, w // 4)
    rows = list(X)
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
                    rows[r] = op(rows[r], p).astype(X.dtype)
    return np.clip(np.array(rows).reshape(X.shape), 0.0, 1.0)


def reference_weak_images(X: np.ndarray, rng, shape) -> np.ndarray:
    """Weak image augmentation row by row, from the batch draws: flip mask, offsets."""
    flips = rng.random(len(X)) < 0.5
    offsets = rng.integers(0, 5, size=(len(X), 2))
    out = []
    for x, flip, (dy, dx) in zip(X, flips, offsets):
        img = x.reshape(shape)
        out.append(ref_crop(ref_flip(img) if flip else img, dy, dx).ravel().astype(X.dtype))
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
                    imgs[r] = op(imgs[r], p).astype(X.dtype)
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
