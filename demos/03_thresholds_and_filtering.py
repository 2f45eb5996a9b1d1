"""Per-class confidence thresholds and the two filtered datasets.

Trains a quick server model on labeled blobs, derives a threshold for each
class from the validation set, then shows how an unlabeled client shard is
filtered: high-confidence instances get pseudo-labels, low-confidence ones
get a complementary "definitely not this class" label.
"""

import numpy as np

from fedseal import (
    DataConfig,
    ServerConfig,
    bootstrap,
    build_negative_set,
    build_positive_set,
    compute_thresholds,
    label_correct_rates,
    load_split,
    nn,
    stream,
)
from fedseal.client import FilteredSets

data_cfg = DataConfig(
    kind="synthetic", n_classes=5, n_features=16, spread=0.25,
    per_client=120, server_train_n=50, server_val_n=40, test_n=100,
)
split = load_split(data_cfg, n_clients=2, seed=11)

server_cfg = ServerConfig(bootstrap_epochs=40, batch_size=16, learning_rate=0.15)
model = bootstrap(split.server_train, server_cfg, stream(11, "boot"), dims=(16, 24, 5))

taus = compute_thresholds(model, split.server_val)
print("per-class confidence thresholds:", np.round(taus, 3))

shard = split.client_train[0]
# The (n, M) confidence matrix a client filters: here one model's outputs;
# a fedseal client uses the mean over every model it has downloaded.
confidence = nn.forward_batch(model, shard)
sets = FilteredSets(
    build_positive_set(confidence, taus),
    build_negative_set(confidence, taus, theta=0.05, rng=stream(11, "neg")),
)
n_pos, n_neg = len(sets.positive[0]), len(sets.negative[0])

print(f"\nclient shard: {len(shard)} unlabeled instances")
print(f"  positive set (pseudo-labeled):      {n_pos}")
print(f"  negative set (complementary-label): {n_neg}")
print(f"  left out of both:                   {len(shard) - n_pos - n_neg}")

pos_rate, neg_rate = label_correct_rates([(sets, split.hidden_labels(0))])
print("\nchecked against the hidden true labels (metrics-only accessor):")
print(f"  pseudo-labels correct:        {pos_rate:.1%}")
print(f"  complementary labels correct: {neg_rate:.1%}")
