"""Server-side round work: aggregation, supervised training, thresholds.

Each round the server averages the uploaded local models, folded as they
arrive (:class:`Uploads`), refines the average on its labeled data, and
publishes a per-class confidence threshold measured on its validation set.
Before round 1 the same :func:`nn.train` loop bootstraps the initial model
from the labeled data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import Collection


@dataclass
class ServerConfig(nn.SGDConfig):
    """Server training schedule, plus the epochs that bootstrap the first model."""

    epochs: int = 5
    bootstrap_epochs: int = 100

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bootstrap_epochs < 0:
            raise ValueError(
                f"bootstrap_epochs must be >= 0, got {self.bootstrap_epochs}"
            )


class Uploads:
    """A round's local models, folded as they arrive into the first model, the
    in-place sum of every model's delta from it, in upload order, and the count:
    all a checkpoint keeps of them.  ``Uploads(models)`` folds an iterable.
    """

    def __init__(self, models=()):
        self.first, self.total, self.count = None, None, 0
        for model in models:
            self.add(model)

    def __len__(self) -> int:
        return self.count

    def add(self, model: nn.ModelParams) -> None:
        if self.first is None:
            self.first, self.total = model, np.zeros_like(model.values)
        elif model.shapes != self.first.shapes:
            raise ValueError("local models disagree on parameter layout")
        self.total += model.values - self.first.values
        self.count += 1


def aggregate(uploads: Uploads) -> nn.ModelParams:
    """Coordinate-wise, unweighted mean of the folded uploads.

    Computed as first + sum(deltas) / K, which is exactly idempotent on
    identical inputs: averaging K copies of a model returns that model bit
    for bit, and the same bytes as a stacked ``mean(axis=0)`` of the deltas.
    The fold's sum becomes the mean in place, so the fold is spent.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty model list")
    total = uploads.total
    total /= uploads.count
    total += uploads.first.values
    return uploads.first.with_values(total)


def server_train(
    global_model: nn.ModelParams,
    data: Collection,
    cfg: nn.SGDConfig,
    rng: np.random.Generator,
    augment_fn=None,
) -> nn.ModelParams:
    """Refine the model with shuffled mini-batch SGD on cross-entropy.

    ``data`` is a labeled collection, one weight-1 :func:`nn.train` term
    whose batches each pass through ``augment_fn(batch, rng)`` (weak
    augmentation).  The input model is not modified.  Besides the server's
    round step, this trains :func:`bootstrap`'s first model and the
    ``fedavg_sl`` client, whose labels are its shard's true ones.
    """
    term = (np.arange(len(data)), data.y, 1.0, False, augment_fn)
    return nn.train(global_model, cfg, rng, data.X, [term])


def compute_thresholds(model: nn.ModelParams, validation: Collection) -> np.ndarray:
    """Per-class confidence thresholds from the labeled validation collection.

    tau_m sums the confidence of validation rows *predicted* as class m
    and divides by the count of rows *truly* in class m, then clamps to
    [0, 1].  A class absent from the validation set gets tau_m = 1.0, so only
    full-confidence rows can pass its filter.
    """
    labels = validation.y
    probs = nn.forward_batch(model, validation.X)
    preds = np.argmax(probs, axis=1)

    n_classes = model.n_classes
    taus = np.ones(n_classes)
    for m in range(n_classes):
        den = int((labels == m).sum())
        if den == 0:
            continue
        num = float(probs[preds == m, m].sum())
        taus[m] = num / den
    return np.clip(taus, 0.0, 1.0)


def bootstrap(
    data: Collection,
    cfg: ServerConfig,
    rng: np.random.Generator,
    dims,
    augment_fn=None,
) -> nn.ModelParams:
    """Train the initial model on server data alone, from a fresh init."""
    params = nn.init_params(dims, rng)
    return server_train(
        params, data, replace(cfg, epochs=cfg.bootstrap_epochs), rng, augment_fn
    )
