"""Round loop, client sampling, the algorithm table and metrics.

One round runs: aggregate last round's uploads -> supervised server training
-> per-class thresholds -> broadcast (ensemble updates) -> filtering and
local training on the sampled clients -> collect uploads.  ``RECIPES`` says
what each algorithm does in that loop: the full algorithm, its
self-ensemble ablation and three baselines, ``server_sl`` (labeled server
data only, the lower bound), ``fedavg_sl`` (clients train on their true
labels, an unrealizable upper bound) and ``fedavg_fixmatch`` (current-model
confidence against one fixed threshold, no negative learning).

Every stochastic choice draws from a stream keyed by (seed, purpose, round,
client), so runs are reproducible regardless of client-level parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import nn
from .client import (
    ClientConfig,
    FilteredSets,
    build_negative_set,
    build_positive_set,
    client_train,
    lambda_at,
    update_ensemble,
)
from .data import (
    Collection,
    DataConfig,
    DatasetSplit,
    augment_strong,
    augment_weak,
    load_split,
)
from .rng import stream
from .server import ServerConfig, Uploads, aggregate, bootstrap, compute_thresholds, server_train


@dataclass(frozen=True)
class Recipe:
    """What one algorithm does in a round, beyond the shared server phase."""

    # A client's training labels: "ensemble" or "model" (the self-ensemble's
    # or the round's model's confidence, filtered by threshold), "hidden"
    # (the label oracle), or None (no client phase).
    labels: str | None
    fixed_threshold: bool = False  # fixmatch_threshold for every class
    negative: bool = True  # complementary negative set
    ramp: bool = True  # lambda ramp; False weighs the positive loss fully from round 1


RECIPES = {
    "fedseal": Recipe("ensemble"),
    "server_sl": Recipe(None),
    "fedavg_sl": Recipe("hidden"),
    "fedavg_fixmatch": Recipe("model", fixed_threshold=True, negative=False, ramp=False),
    "fedseal_no_ensemble": Recipe("model"),
}
ALGORITHMS = tuple(RECIPES)


@dataclass
class ExperimentConfig:
    algorithm: str = "fedseal"
    n_clients: int = 10
    clients_per_round: int = 10
    rounds: int = 100
    seed: int = 0
    fixmatch_threshold: float = 0.9
    parallel_clients: int = 1
    hidden_dims: tuple[int, ...] = (128, 64)
    # Config sections, serialized in this order.
    data: DataConfig = field(default_factory=DataConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    client: ClientConfig = field(default_factory=ClientConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ValueError(
                f"clients_per_round must be in [1, {self.n_clients}], "
                f"got {self.clients_per_round}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.fixmatch_threshold <= 1.0:
            raise ValueError(
                f"fixmatch_threshold must be in [0, 1], got {self.fixmatch_threshold}"
            )
        if self.parallel_clients < 1:
            raise ValueError(
                f"parallel_clients must be >= 1, got {self.parallel_clients}"
            )
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in self.hidden_dims) or not self.hidden_dims:
            raise ValueError(f"hidden_dims must be positive, got {self.hidden_dims}")


@dataclass
class RoundRecord:
    """Published metrics of one round."""

    round: int
    test_accuracy: float
    taus: tuple[float, ...]
    pos_sizes: tuple[int, ...]
    neg_sizes: tuple[int, ...]
    pos_correct_rate: float | None
    neg_correct_rate: float | None
    lambda_weight: float | None  # None when no loss is weighted by lambda


class ExperimentState:
    """Everything that persists between rounds.

    Beside the fixed config, split and augmenters, a round reads and advances
    exactly these: ``global_params``, the last round's model; ``uploads``,
    the sampled clients' local models awaiting aggregation, folded as they
    arrived into a first model, a sum of deltas and a count (``Uploads``);
    ``ensembles``, one (n_k, M) self-ensemble matrix per client (None until
    the first broadcast, and always None for algorithms without one); and
    the decayed ``server_lr`` and ``client_lr``.  These, with the round
    index, are what a checkpoint of a run must hold.
    """

    def __init__(self, cfg: ExperimentConfig, split: DatasetSplit, global_params):
        self.cfg = cfg
        self.split = split
        self.global_params = global_params
        self.uploads = Uploads()
        self.ensembles: list[np.ndarray | None] = [None] * cfg.n_clients
        self.server_lr = cfg.server.learning_rate
        self.client_lr = cfg.client.learning_rate
        shape = cfg.data.image_shape
        self.weak_augment = partial(augment_weak, image_shape=shape)
        self.strong_augment = partial(augment_strong, image_shape=shape)


def sample_clients(n_clients: int, k: int, round_index: int, seed: int) -> list[int]:
    """Uniform sample of k distinct clients, deterministic in (seed, round)."""
    if k > n_clients:
        raise ValueError(f"cannot sample {k} clients from {n_clients}")
    rng = stream(seed, "sample", round_index)
    return sorted(int(c) for c in rng.choice(n_clients, size=k, replace=False))


def evaluate(model: nn.ModelParams, test_set: Collection) -> float:
    """Fraction of test rows whose predicted class is the true label."""
    preds = nn.predict_batch(model, test_set.X)
    return float((preds == test_set.y).mean())


def label_correct_rates(per_client) -> tuple[float | None, float | None]:
    """Correctness of filtered sets against the hidden true labels.

    ``per_client`` holds (FilteredSets, hidden labels of that shard) pairs;
    the rates pool every client's rows.  A pseudo-label is correct when it
    equals the true label; a complementary label is correct when it differs.
    Empty sets report None, not 0.
    """
    pos_hits = pos_n = neg_hits = neg_n = 0
    for sets, hidden in per_client:
        rows, labels = sets.positive
        pos_hits += int((hidden[rows] == labels).sum())
        pos_n += len(rows)
        rows, labels = sets.negative
        neg_hits += int((hidden[rows] != labels).sum())
        neg_n += len(rows)
    return (pos_hits / pos_n if pos_n else None, neg_hits / neg_n if neg_n else None)


def _train_client(state: ExperimentState, k: int, round_index: int, w_t, taus, ccfg, lam):
    """One sampled client's work on its (n_k, width) shard: (local model, filtered sets)."""
    cfg = state.cfg
    recipe = RECIPES[cfg.algorithm]
    shard = state.split.client_train[k]
    client_rng = stream(cfg.seed, "client", k, round_index)

    if recipe.labels == "hidden":
        labeled = Collection(shard, state.split.hidden_labels(k))
        local = server_train(w_t, labeled, ccfg, client_rng, state.weak_augment)
        return local, FilteredSets()

    if recipe.labels == "ensemble":
        conf = state.ensembles[k]
    else:
        conf = nn.forward_batch(w_t, shard)
    sets = FilteredSets(build_positive_set(conf, taus))
    if recipe.negative:
        negative_rng = stream(cfg.seed, "negative", k, round_index)
        sets = replace(sets, negative=build_negative_set(conf, taus, ccfg.theta, negative_rng))
    local = client_train(w_t, sets, shard, ccfg, lam, client_rng, state.strong_augment)
    return local, sets


def _fold(uploads: Uploads, results) -> list[FilteredSets]:
    """Fold (local model, filtered sets) results into ``uploads`` in order; return the sets."""
    sets = []
    for local, client_sets in results:
        uploads.add(local)
        sets.append(client_sets)
        del local  # folded: not held while the next result is awaited
    return sets


def run_round(state: ExperimentState, round_index: int):
    """Execute one full round; returns (state, RoundRecord)."""
    cfg = state.cfg
    recipe = RECIPES[cfg.algorithm]

    # Step 1: aggregate previous uploads (if any), then server training.
    w_bar = aggregate(state.uploads) if state.uploads else state.global_params
    state.uploads = Uploads()  # spent: this round's clients fold into a new one
    server_cfg = replace(cfg.server, learning_rate=state.server_lr)
    w_t = server_train(
        w_bar,
        state.split.server_train,
        server_cfg,
        stream(cfg.seed, "server", round_index),
        state.weak_augment,
    )
    # Neither w_bar nor the last round's model outlives server training.
    del w_bar
    state.global_params = w_t
    taus = compute_thresholds(w_t, state.split.server_val)
    client_taus = taus  # the record keeps the server's thresholds
    if recipe.fixed_threshold:
        client_taus = np.full(w_t.n_classes, cfg.fixmatch_threshold)
    ccfg = replace(cfg.client, learning_rate=state.client_lr)
    lam = None  # no loss is weighted by lambda
    if recipe.labels in ("ensemble", "model"):
        lam = lambda_at(round_index, ccfg) if recipe.ramp else 1.0

    # Steps 2-4: broadcast, client training, upload.
    sets: list[FilteredSets] = []
    sampled: list[int] = []
    if recipe.labels is not None:
        sampled = sample_clients(cfg.n_clients, cfg.clients_per_round, round_index, cfg.seed)
        if recipe.labels == "ensemble":
            for k, shard in enumerate(state.split.client_train):
                state.ensembles[k] = update_ensemble(state.ensembles[k], round_index, w_t, shard)
        task = partial(_train_client, state, round_index=round_index, w_t=w_t,
                       taus=client_taus, ccfg=ccfg, lam=lam)
        if cfg.parallel_clients > 1 and len(sampled) > 1:
            workers = min(cfg.parallel_clients, len(sampled))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                sets = _fold(state.uploads, pool.map(task, sampled))
        else:
            sets = _fold(state.uploads, map(task, sampled))

    # Metrics.
    pos_rate, neg_rate = label_correct_rates(
        zip(sets, (state.split.hidden_labels(k) for k in sampled))
    )
    record = RoundRecord(
        round=round_index,
        test_accuracy=evaluate(w_t, state.split.test),
        taus=tuple(float(v) for v in taus),
        pos_sizes=tuple(len(s.positive[0]) for s in sets),
        neg_sizes=tuple(len(s.negative[0]) for s in sets),
        pos_correct_rate=pos_rate,
        neg_correct_rate=neg_rate,
        lambda_weight=lam,
    )

    # Advance state: decayed learning rates.
    state.server_lr *= cfg.server.lr_decay
    state.client_lr *= cfg.client.lr_decay
    return state, record


def start(cfg: ExperimentConfig) -> ExperimentState:
    """Load the split and bootstrap the global model: the state before round 1."""
    split = load_split(cfg.data, cfg.n_clients, cfg.seed)
    cfg.client.check_theta(split.n_classes)
    dims = (split.feature_width, *cfg.hidden_dims, split.n_classes)
    state = ExperimentState(cfg, split, None)
    state.global_params = bootstrap(
        split.server_train,
        cfg.server,
        stream(cfg.seed, "bootstrap"),
        dims,
        state.weak_augment,
    )
    return state


def run_experiment(cfg: ExperimentConfig) -> list[RoundRecord]:
    """Full experiment per the configured algorithm; one record per round."""
    state = start(cfg)
    records = []
    for t in range(1, cfg.rounds + 1):
        state, record = run_round(state, t)
        records.append(record)
    return records
