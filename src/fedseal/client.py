"""Client-side round work: ensembling, filtering, local training.

A client never sees a true label.  Instead it keeps a running average of
every downloaded global model's confidence on its own data (the
self-ensemble), an (n, M) matrix with one row per shard row.  The filters
take any such confidence matrix, the self-ensemble or one model's output:
rows whose top class clears the server's per-class threshold form a
pseudo-labeled positive set, and a class the rest are confidently not
becomes their complementary label.  The client then trains on
lam * positive loss + negative loss (two :func:`nn.train` terms), with
``lam`` set by the round.
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
    avg: np.ndarray | None, t: int, model: nn.ModelParams, features: np.ndarray
) -> np.ndarray:
    """The mean confidence of ``t`` models on a shard, given the first t - 1's.

    ``avg`` is the mean of the previous t - 1 models' outputs (None when
    t == 1), and ``model`` is the t-th.  The update is
    avg <- ((t-1)/t) avg + (1/t) p, which keeps avg equal to the plain mean
    of every model's output without storing the models.  At t == 1 it
    returns p itself.
    """
    if t < 1:
        raise ValueError(f"ensemble size must be >= 1, got {t}")
    probs = nn.forward_batch(model, features)
    if t == 1:
        return probs
    if avg is None:
        raise ValueError(f"model {t} of an ensemble needs the mean of the first {t - 1}")
    if probs.shape != avg.shape:
        raise ValueError("ensemble update saw a different instance set")
    return ((t - 1) / t) * avg + (1.0 / t) * probs


def _filter(conf: np.ndarray, taus: np.ndarray):
    """Per-row pseudo-labels and whether each clears its class threshold."""
    labels = np.argmax(conf, axis=1)
    top = conf[np.arange(len(conf)), labels]
    return labels, top >= np.asarray(taus)[labels]


def build_positive_set(conf: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``conf`` whose top class clears its threshold, with that class."""
    labels, keep = _filter(conf, taus)
    rows = np.flatnonzero(keep)
    return rows, labels[rows]


def build_negative_set(
    conf: np.ndarray,
    taus: np.ndarray,
    theta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary labels for rows kept out of the positive set.

    For each such row, any class with confidence <= theta is a candidate;
    one is drawn uniformly, with one ``rng.integers`` call over all rows in
    row order.  Rows with no candidate class are skipped, so the result is
    disjoint from the positive set by construction.
    """
    _, in_positive = _filter(conf, taus)
    candidates = conf <= theta
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
    lam: float,
    rng: np.random.Generator,
    strong_augment_fn=None,
) -> nn.ModelParams:
    """Local SGD on ``lam`` * positive loss + negative loss over a shard.

    Positive rows train with strong augmentation, one
    ``strong_augment_fn(batch, rng)`` call per batch, against their
    pseudo-labels; negative rows train un-augmented against the
    complementary loss.  An empty component, or the positive one at
    ``lam`` = 0, drops out of the objective and draws nothing from ``rng``;
    if neither is left the global model is returned untouched.
    """
    terms = [(*sets.positive, lam, False, strong_augment_fn), (*sets.negative, 1.0, True, None)]
    return nn.train(global_model, cfg, rng, features, terms)
