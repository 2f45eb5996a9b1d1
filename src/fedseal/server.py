"""Server-side round work: aggregation, supervised training, thresholds.

Each round the server averages the uploaded local models, refines the
average on its labeled data, and publishes a per-class confidence threshold
measured on its validation set.  Before round 1 the same training machinery
bootstraps the initial model from the labeled data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import Collection

TRUE_COUNT = "true_count"
PREDICTED_COUNT = "predicted_count"


@dataclass
class ServerConfig:
    """Server training schedule; ``learning_rate`` is the current round's."""

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.001
    lr_decay: float = 0.995
    momentum: float = 0.9
    bootstrap_epochs: int = 100
    threshold_denominator: str = TRUE_COUNT
    size_weighted_aggregation: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.bootstrap_epochs < 0:
            raise ValueError(
                f"bootstrap_epochs must be >= 0, got {self.bootstrap_epochs}"
            )
        if self.threshold_denominator not in (TRUE_COUNT, PREDICTED_COUNT):
            raise ValueError(
                f"unknown threshold_denominator {self.threshold_denominator!r}"
            )


def aggregate(
    local_models: list[nn.ModelParams], weights: list[float] | None = None
) -> nn.ModelParams:
    """Coordinate-wise mean of the uploaded local models.

    Unweighted by default; pass client dataset sizes as ``weights`` for a
    size-weighted mean.  Computed as first + mean(deltas), which is exactly
    idempotent on identical inputs: averaging K copies of a model returns
    that model bit for bit.
    """
    if not local_models:
        raise ValueError("cannot aggregate an empty model list")
    first = local_models[0]
    for model in local_models[1:]:
        if model.shapes != first.shapes or model.values.size != first.values.size:
            raise ValueError("local models disagree on parameter layout")
    if weights is not None and len(weights) != len(local_models):
        raise ValueError(
            f"{len(weights)} weights for {len(local_models)} models"
        )
    if len(local_models) == 1:
        return first
    deltas = np.stack([model.values - first.values for model in local_models])
    if weights is None:
        mean_delta = deltas.mean(axis=0)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.sum() <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        mean_delta = (w[:, None] * deltas).sum(axis=0) / w.sum()
    return first.with_values(first.values + mean_delta)


def server_train(
    global_model: nn.ModelParams,
    data: Collection,
    cfg: ServerConfig,
    rng: np.random.Generator,
    augment_fn=None,
) -> nn.ModelParams:
    """Refine the model with shuffled mini-batch SGD on cross-entropy.

    ``data`` is a labeled collection.  Each batch of every epoch passes
    through ``augment_fn(batch, rng)`` (weak augmentation), one call per
    batch.  The input model is not modified.
    """
    if not len(data):
        raise ValueError("server training set is empty")
    opt = nn.OptimizerState(global_model, cfg.learning_rate, cfg.momentum)
    n = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            x = data.X[rows]
            if augment_fn is not None:
                x = augment_fn(x, rng)
            grad = nn.gradient(opt.params, x, data.y[rows], False, 1.0)
            nn.sgd_step(opt, grad)
    return opt.result()


def compute_thresholds(
    model: nn.ModelParams, validation: Collection, denominator: str = TRUE_COUNT
) -> np.ndarray:
    """Per-class confidence thresholds from the labeled validation collection.

    tau_m sums the confidence of validation rows *predicted* as class m
    and divides by the count of rows *truly* in class m, then clamps to
    [0, 1].  A class absent from the validation set gets tau_m = 1.0, so only
    full-confidence rows can pass its filter.  ``denominator`` can be
    switched to PREDICTED_COUNT to condition both sides on the prediction.
    """
    if not len(validation):
        raise ValueError("validation set is empty")
    labels = validation.y
    probs = nn.forward_batch(model, validation.X)
    preds = np.argmax(probs, axis=1)

    n_classes = model.n_classes
    taus = np.ones(n_classes)
    for m in range(n_classes):
        predicted_m = preds == m
        if denominator == TRUE_COUNT:
            den = int((labels == m).sum())
        else:
            den = int(predicted_m.sum())
        if den == 0:
            continue
        num = float(probs[predicted_m, m].sum())
        taus[m] = min(num / den, 1.0)
    return np.clip(taus, 0.0, 1.0)


def bootstrap(
    data: Collection,
    cfg: ServerConfig,
    rng: np.random.Generator,
    dims,
    augment_fn=None,
) -> nn.ModelParams:
    """Train the initial model on server data alone, from a fresh init."""
    if not len(data):
        raise ValueError("bootstrap training set is empty")
    params = nn.init_params(dims, rng)
    if cfg.bootstrap_epochs == 0:
        return params
    return server_train(
        params, data, replace(cfg, epochs=cfg.bootstrap_epochs), rng, augment_fn
    )
