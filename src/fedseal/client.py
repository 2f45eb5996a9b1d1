"""Client-side round work: ensembling, filtering, local training.

A client never sees a true label.  Instead it keeps a running average of
every downloaded global model's confidence on its own data (the
self-ensemble), filters instances whose ensemble confidence clears the
server's per-class threshold into a pseudo-labeled positive set, assigns a
complementary "definitely not this class" label to low-confidence classes
of the rest, and trains on the weighted combination of both signals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nn


@dataclass
class ClientConfig(nn.SGDConfig):
    """Local training schedule, plus the filtering and loss-weight settings."""

    theta: float = 0.05
    lambda_max: float = 1.0
    lambda_ramp_rounds: int = 30

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if not self.lambda_max >= 0:
            raise ValueError(f"lambda_max must be >= 0, got {self.lambda_max}")
        if self.lambda_ramp_rounds < 1:
            raise ValueError(
                f"lambda_ramp_rounds must be >= 1, got {self.lambda_ramp_rounds}"
            )

    def check_theta(self, n_classes: int) -> None:
        if self.theta >= 1.0 / n_classes:
            warnings.warn(
                f"theta={self.theta} >= 1/{n_classes}; the predicted class itself "
                "can fall below the complementary threshold",
                stacklevel=2,
            )


class EnsembleState:
    """Running average of historical models' confidence, one row per shard row."""

    def __init__(self, avg: np.ndarray, count: int):
        self.avg = avg
        self.count = count

    @classmethod
    def empty(cls) -> "EnsembleState":
        return cls(np.empty((0, 0)), 0)


def _no_rows() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


@dataclass
class FilteredSets:
    """Per-round (shard rows, labels) array pairs; the row sets never overlap."""

    positive: tuple[np.ndarray, np.ndarray] = field(default_factory=_no_rows)
    negative: tuple[np.ndarray, np.ndarray] = field(default_factory=_no_rows)

    def __post_init__(self) -> None:
        for name in ("positive", "negative"):
            rows, labels = (np.asarray(a, dtype=np.int64) for a in getattr(self, name))
            if rows.shape != labels.shape or rows.ndim != 1:
                raise ValueError(f"{name} set needs one label per row")
            setattr(self, name, (rows, labels))


def update_ensemble(
    state: EnsembleState, model: nn.ModelParams, features: np.ndarray
) -> EnsembleState:
    """Fold the current model's confidence on a shard into the running average.

    With t models seen so far the update is avg <- ((t-1)/t) avg + (1/t) p,
    which keeps avg equal to the plain mean of every model's output without
    storing the models.  The first call simply stores the outputs.
    """
    probs = nn.forward_batch(model, features)
    if state.count == 0:
        return EnsembleState(probs, 1)
    if probs.shape != state.avg.shape:
        raise ValueError("ensemble update saw a different instance set")
    t = state.count + 1
    avg = ((t - 1) / t) * state.avg + (1.0 / t) * probs
    return EnsembleState(avg, t)


def _filter(state: EnsembleState, taus: np.ndarray):
    """Per-row pseudo-labels and whether each clears its class threshold."""
    conf = state.avg
    labels = np.argmax(conf, axis=1)
    top = conf[np.arange(len(conf)), labels]
    return labels, top >= np.asarray(taus)[labels]


def build_positive_set(
    state: EnsembleState, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose pseudo-label confidence clears its class threshold, with those labels."""
    labels, keep = _filter(state, taus)
    rows = np.flatnonzero(keep)
    return rows, labels[rows]


def build_negative_set(
    state: EnsembleState,
    taus: np.ndarray,
    theta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary labels for rows kept out of the positive set.

    For each such row, any class with ensemble confidence <= theta is a
    candidate; one is drawn uniformly, with one ``rng.integers`` call over
    all rows in row order.  Rows with no candidate class are skipped, so the
    result is disjoint from the positive set by construction.
    """
    _, in_positive = _filter(state, taus)
    candidates = state.avg <= theta
    counts = candidates.sum(axis=1)
    rows = np.flatnonzero(~in_positive & (counts > 0))
    picks = rng.integers(0, counts[rows])
    # The picks-th candidate is the first column whose running count exceeds it.
    comp = np.argmax(np.cumsum(candidates[rows], axis=1) > picks[:, None], axis=1)
    return rows, comp


def lambda_at(round_index: int, cfg: ClientConfig) -> float:
    """Positive-loss weight: linear ramp to lambda_max over the ramp window."""
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    return cfg.lambda_max * min(1.0, round_index / cfg.lambda_ramp_rounds)


def client_train(
    global_model: nn.ModelParams,
    sets: FilteredSets,
    features: np.ndarray,
    cfg: ClientConfig,
    round_index: int,
    rng: np.random.Generator,
    strong_augment_fn=None,
) -> nn.ModelParams:
    """Local SGD on lambda * positive loss + negative loss over a shard.

    Positive rows train with strong augmentation, one
    ``strong_augment_fn(batch, rng)`` call per batch, against their
    pseudo-labels; negative rows train un-augmented against the
    complementary loss.  An empty component drops out of the objective; if
    both sets are empty the global model is returned untouched.
    """
    pos_rows, pos_labels = sets.positive
    neg_rows, neg_labels = sets.negative
    n_pos, n_neg = len(pos_rows), len(neg_rows)
    lam = lambda_at(round_index, cfg)
    use_pos = n_pos > 0 and lam > 0.0
    batches = max(-(-n_pos // cfg.batch_size) if use_pos else 0,
                  -(-n_neg // cfg.batch_size))
    if batches == 0 or cfg.epochs == 0:
        return global_model

    opt = nn.OptimizerState(global_model, cfg.learning_rate, cfg.momentum)
    for _ in range(cfg.epochs):
        pos_order = rng.permutation(n_pos) if use_pos else None
        neg_order = rng.permutation(n_neg) if n_neg else None
        for b in range(batches):
            lo, hi = b * cfg.batch_size, (b + 1) * cfg.batch_size
            grad = None
            if use_pos and lo < n_pos:
                picked = pos_order[lo:hi]
                rows = pos_rows[picked]
                x = features[rows]
                if strong_augment_fn is not None:
                    x = strong_augment_fn(x, rng)
                grad = lam * nn.gradient(opt.params, x, pos_labels[picked])
            if lo < n_neg:
                picked = neg_order[lo:hi]
                neg_grad = nn.gradient(
                    opt.params, features[neg_rows[picked]], neg_labels[picked], negative=True
                )
                grad = neg_grad if grad is None else grad + neg_grad
            nn.sgd_step(opt, grad)
    return opt.result()
