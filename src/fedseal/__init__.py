"""Desk-scale simulator for semi-supervised federated learning.

The server holds the only labeled data; clients hold unlabeled shards.
Each round the server aggregates and refines the global model and publishes
per-class confidence thresholds; clients self-ensemble historical models to
pseudo-label confident instances and assign complementary (not-this-class)
labels to the rest, then train locally on both signals.  Lower/upper-bound
baselines and a FixMatch-style combination share the same round loop.
"""

from .client import (
    ClientConfig,
    FilteredSets,
    build_negative_set,
    build_positive_set,
    client_train,
    lambda_at,
    update_ensemble,
)
from .config import ConfigError, config_hash, parse_config, parse_config_text, serialize_config
from .data import (
    Collection,
    DataConfig,
    DatasetSplit,
    augment_strong,
    augment_weak,
    ingest_csv,
    ingest_idx,
    load_split,
    partition,
    synthetic_blobs,
)
from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    RoundRecord,
    evaluate,
    label_correct_rates,
    run_experiment,
    run_round,
    sample_clients,
    start,
)
from .nn import (
    ModelParams,
    batch_loss,
    forward_batch,
    gradient,
    init_params,
    predict_batch,
    sgd_step,
)
from .rng import stream
from .server import ServerConfig, Uploads, aggregate, bootstrap, compute_thresholds, server_train

__version__ = "0.1.0"
