"""Round loop, baselines, sampling, metrics, determinism, ordering."""

import dataclasses
import warnings
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fedseal import (
    ALGORITHMS,
    ClientConfig,
    Collection,
    DataConfig,
    EnsembleState,
    ExperimentConfig,
    FilteredSets,
    ServerConfig,
    aggregate,
    bootstrap,
    build_negative_set,
    build_positive_set,
    client_train,
    compute_thresholds,
    evaluate,
    label_correct_rates,
    load_split,
    parse_config,
    run_experiment,
    sample_clients,
    server_train,
    start,
    stream,
    update_ensemble,
)
from fedseal.data import augment_strong, augment_weak
from fedseal.experiment import run_round
from fedseal.nn import ModelParams, forward_batch, shapes_for

from conftest import labeled_rows, make_params, run_all_rounds

REPO_ROOT = Path(__file__).resolve().parents[1]


def small_config(algorithm="fedseal", seed=3, rounds=3, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        algorithm=algorithm,
        n_clients=3,
        clients_per_round=3,
        rounds=rounds,
        seed=seed,
        hidden_dims=(12, 6),
        server=ServerConfig(epochs=2, batch_size=16, learning_rate=0.08, bootstrap_epochs=10),
        client=ClientConfig(epochs=1, batch_size=16, learning_rate=0.08, lambda_ramp_rounds=10),
        data=DataConfig(
            kind="synthetic", n_classes=4, n_features=10, spread=0.2,
            per_client=24, server_train_n=32, server_val_n=20, test_n=60,
        ),
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# sample_clients
# ---------------------------------------------------------------------------


def test_sample_all_clients():
    assert sample_clients(7, 7, 1, 0) == list(range(7))


def test_sample_single_client_deterministic():
    first = sample_clients(20, 1, 4, 9)
    assert len(first) == 1
    for _ in range(5):
        assert sample_clients(20, 1, 4, 9) == first


def test_sample_frequencies_within_three_sigma():
    counts = np.zeros(100)
    draws = 10_000
    for r in range(1, draws + 1):
        for c in sample_clients(100, 5, r, seed=0):
            counts[c] += 1
    freq = counts / draws
    sigma = np.sqrt(0.05 * 0.95 / draws)
    assert np.abs(freq - 0.05).max() < 3 * sigma


def test_sample_more_than_population_is_error():
    with pytest.raises(ValueError, match="cannot sample"):
        sample_clients(3, 4, 1, 0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_perfect_model():
    # Huge identity logits on one-hot inputs predict every label.
    n = 4
    model = ModelParams(
        np.concatenate([(200.0 * np.eye(n)).ravel(), np.zeros(n)]), shapes_for((n, n))
    )
    labels = np.arange(12) % n
    test_set = Collection(np.eye(n)[labels], labels)
    assert evaluate(model, test_set) == 1.0


def test_evaluate_constant_model_on_balanced_binary_set():
    model = ModelParams(np.zeros(2 * 2 + 2), shapes_for((2, 2)))  # always class 0
    features = np.stack([np.array([0.1 * i, 0.2]) for i in range(10)])
    test_set = Collection(features, np.arange(10) % 2)
    assert evaluate(model, test_set) == 0.5


def test_evaluate_matches_per_instance_loop():
    model = make_params((5, 8, 3), seed=1)
    test_set = labeled_rows(100, 5, 3, seed=1)
    hits = sum(
        1 for x, y in zip(test_set.X, test_set.y)
        if np.argmax(forward_batch(model, x[None])[0]) == y
    )
    assert evaluate(model, test_set) == hits / 100


def test_evaluate_rejects_empty_or_unlabeled():
    model = make_params((2, 3, 2), seed=0)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, labeled_rows(0, 2, 2, seed=0))
    with pytest.raises(ValueError, match="labeled"):
        evaluate(model, Collection(np.zeros((1, 2))))


# ---------------------------------------------------------------------------
# label_correct_rates
# ---------------------------------------------------------------------------


def test_rates_all_pseudo_labels_correct():
    sets = FilteredSets(([0, 1], [1, 2]))
    pos, neg = label_correct_rates([(sets, np.array([1, 2]))])
    assert pos == 1.0 and neg is None


def test_rates_complementary_by_construction():
    # Complementary labels drawn from low-confidence classes while the true
    # class is confidently predicted: every one is correct.
    sets = FilteredSets(negative=([0, 1], [2, 0]))
    pos, neg = label_correct_rates([(sets, np.array([0, 1]))])
    assert pos is None and neg == 1.0


def test_rates_hand_built_table():
    # Two clients; the rates pool their rows.
    hidden = np.arange(10) % 3
    positive = [(i, i % 3 if i < 4 else (i + 1) % 3) for i in range(6)]
    negative = [(i, (i + 1) % 3 if i < 9 else i % 3) for i in range(6, 10)]
    first = FilteredSets(tuple(zip(*positive[:3])), tuple(zip(*negative[:1])))
    second = FilteredSets(tuple(zip(*positive[3:])), tuple(zip(*negative[1:])))
    pos, neg = label_correct_rates([(first, hidden), (second, hidden)])
    pos_expected = sum(1 for i, y in positive if hidden[i] == y) / 6
    neg_expected = sum(1 for i, y in negative if hidden[i] != y) / 4
    assert pos == pos_expected
    assert neg == neg_expected


def test_rates_empty_sets_are_absent_not_zero():
    assert label_correct_rates([]) == (None, None)
    assert label_correct_rates([(FilteredSets(), np.arange(3))]) == (None, None)


# ---------------------------------------------------------------------------
# start
# ---------------------------------------------------------------------------


def test_start_matches_benchmark_set_up(monkeypatch):
    # perfbench/bench.py keeps its own copy of the set-up; it must build the
    # same state as start() or the benchmark measures a different run.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import bench

    cfg = parse_config(REPO_ROOT / "configs" / "synthetic_small.ini")
    ours, theirs = start(cfg), bench.set_up(cfg)
    assert ours.global_params.values.tobytes() == theirs.global_params.values.tobytes()
    assert ours.global_params.shapes == theirs.global_params.shapes
    for name in ("server_train", "server_val", "test"):
        a, b = getattr(ours.split, name), getattr(theirs.split, name)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
    assert len(ours.split.client_train) == len(theirs.split.client_train) == cfg.n_clients
    for k, (a, b) in enumerate(zip(ours.split.client_train, theirs.split.client_train)):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(ours.split.hidden_labels(k), theirs.split.hidden_labels(k))
    assert (ours.server_lr, ours.client_lr) == (theirs.server_lr, theirs.client_lr)


@pytest.mark.parametrize("theta, warns", [(0.05, False), (0.2499, False), (0.25, True)])
def test_start_warns_when_theta_reaches_inverse_class_count(theta, warns):
    # 1/M = 0.25 for 4 classes: from there on the predicted class itself can
    # fall below the complementary threshold.
    cfg = small_config(rounds=1)
    cfg.client = replace(cfg.client, theta=theta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start(cfg)
    named = [w for w in caught if w.category is UserWarning and "theta" in str(w.message)]
    assert bool(named) == warns


# ---------------------------------------------------------------------------
# run_round
# ---------------------------------------------------------------------------


def test_run_round_zero_clients_is_pure_server_training():
    cfg = small_config(rounds=1)
    state = start(cfg)
    cfg.clients_per_round = 0  # test override below the config validator
    w_prev = state.global_params
    state, record = run_round(state, 1)

    oracle = server_train(
        w_prev,
        state.split.server_train,
        replace(cfg.server, learning_rate=cfg.server.learning_rate),
        stream(cfg.seed, "server", 1),
        state.weak_augment,
    )
    np.testing.assert_array_equal(state.global_params.values, oracle.values)
    assert record.pos_sizes == () and record.neg_sizes == ()
    assert record.pos_correct_rate is None


def test_run_round_repeatable_record():
    cfg = small_config()
    a, _ = run_round(start(cfg), 1)
    b, _ = run_round(start(cfg), 1)
    _, rec_a = run_round(start(cfg), 1)
    _, rec_b = run_round(start(cfg), 1)
    assert rec_a == rec_b
    np.testing.assert_array_equal(a.global_params.values, b.global_params.values)


def test_three_round_trace_matches_hand_stepped_transcript():
    # Walk the four round steps by hand with the same streams and compare
    # every published quantity and the final model bit for bit.
    cfg = small_config(seed=8)
    records, state = run_all_rounds(cfg)

    split = load_split(cfg.data, cfg.n_clients, cfg.seed)
    dims = (split.feature_width, *cfg.hidden_dims, split.n_classes)
    weak = partial(augment_weak, image_shape=None)
    strong = partial(augment_strong, image_shape=None)
    w = bootstrap(split.server_train, cfg.server, stream(cfg.seed, "bootstrap"), dims, weak)
    uploads = []
    ensembles = {k: EnsembleState.empty() for k in range(cfg.n_clients)}
    server_lr, client_lr = cfg.server.learning_rate, cfg.client.learning_rate

    for t in range(1, cfg.rounds + 1):
        w_bar = aggregate(uploads) if uploads else w
        w_t = server_train(
            w_bar, split.server_train, replace(cfg.server, learning_rate=server_lr),
            stream(cfg.seed, "server", t), weak,
        )
        taus = compute_thresholds(w_t, split.server_val)
        sampled = sample_clients(cfg.n_clients, cfg.clients_per_round, t, cfg.seed)
        for k in range(cfg.n_clients):
            ensembles[k] = update_ensemble(ensembles[k], w_t, split.client_train[k].X)
        uploads = []
        rec = records[t - 1]
        np.testing.assert_array_equal(np.array(rec.taus), taus)
        assert rec.test_accuracy == evaluate(w_t, split.test)
        for pos_in_rec, neg_in_rec, k in zip(rec.pos_sizes, rec.neg_sizes, sampled):
            pos = build_positive_set(ensembles[k], taus)
            neg = build_negative_set(
                ensembles[k], taus, cfg.client.theta, stream(cfg.seed, "negative", k, t),
            )
            assert (len(pos[0]), len(neg[0])) == (pos_in_rec, neg_in_rec)
            uploads.append(
                client_train(
                    w_t, FilteredSets(pos, neg), split.client_train[k].X,
                    replace(cfg.client, learning_rate=client_lr), t,
                    stream(cfg.seed, "client", k, t), strong,
                )
            )
        w = w_t
        server_lr *= cfg.server.lr_decay
        client_lr *= cfg.client.lr_decay

    np.testing.assert_array_equal(state.global_params.values, w.values)


def _same_sets(a: FilteredSets, b: FilteredSets) -> bool:
    return all(
        np.array_equal(x, y) for x, y in zip((*a.positive, *a.negative), (*b.positive, *b.negative))
    )


def test_uploads_are_freed_once_aggregated(monkeypatch):
    # Round t's uploads are dead once round t + 1 has averaged them: none is
    # alive when round t + 1's first client trains.
    round_now = [0]
    uploads = {}  # round -> weakrefs to its uploads
    alive = {}  # round -> liveness of the previous round's uploads at its first training

    def recording_client_train(*args):
        t = round_now[0]
        if t - 1 in uploads and t not in alive:
            alive[t] = [ref() is not None for ref in uploads[t - 1]]
        local = client_train(*args)
        uploads.setdefault(t, []).append(weakref.ref(local))
        return local

    monkeypatch.setattr("fedseal.experiment.client_train", recording_client_train)
    cfg = small_config(rounds=3)
    state = start(cfg)
    for t in range(1, cfg.rounds + 1):
        round_now[0] = t
        state, _ = run_round(state, t)
    assert [len(uploads[t]) for t in (1, 2, 3)] == [cfg.clients_per_round] * 3
    assert alive == {2: [False] * cfg.clients_per_round, 3: [False] * cfg.clients_per_round}


def test_ensemble_ablation_filters_on_the_current_model_only(monkeypatch):
    # Under fedseal_no_ensemble each sampled client filters on the confidence
    # of the round's global model alone and no client keeps an ensemble; the
    # row must change the sets once an ensemble holds two models.
    trained = []

    def recording_client_train(w_t, sets, *rest):
        trained.append(sets)
        return client_train(w_t, sets, *rest)

    monkeypatch.setattr("fedseal.experiment.client_train", recording_client_train)

    def run(algorithm):
        cfg = small_config(algorithm, n_clients=4, clients_per_round=2, rounds=5)
        state = start(cfg)
        rounds = []
        for t in range(1, cfg.rounds + 1):
            trained.clear()
            state, _ = run_round(state, t)
            sampled = sample_clients(cfg.n_clients, cfg.clients_per_round, t, cfg.seed)
            assert len(trained) == len(sampled)
            rounds.append((state.global_params, dict(zip(sampled, trained))))
        return cfg, state, rounds

    cfg, state, ablated = run("fedseal_no_ensemble")
    assert all(e.count == 0 and e.avg.size == 0 for e in state.ensembles.values())
    for t, (w_t, sets_by_client) in enumerate(ablated, start=1):
        taus = compute_thresholds(w_t, state.split.server_val)
        for k, sets in sets_by_client.items():
            conf = update_ensemble(EnsembleState.empty(), w_t, state.split.client_train[k].X)
            expected = FilteredSets(
                build_positive_set(conf, taus),
                build_negative_set(conf, taus, cfg.client.theta, stream(cfg.seed, "negative", k, t)),
            )
            assert _same_sets(sets, expected), (t, k)
    assert any(len(sets.positive[0]) for _, by_k in ablated for sets in by_k.values())

    _, with_ensemble, full = run("fedseal")
    # Sampled or not, every client folds in every round's global model.
    assert all(e.count == cfg.rounds for e in with_ensemble.ensembles.values())
    assert any(
        not _same_sets(a, b)
        for (_, by_k_a), (_, by_k_b) in zip(ablated[1:], full[1:])
        for a, b in zip(by_k_a.values(), by_k_b.values())
    )


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def _lr_after(rounds: int, **server) -> float:
    # server_sl with no server epochs: each round only decays the rates.
    cfg = small_config(
        algorithm="server_sl", rounds=rounds,
        server=ServerConfig(epochs=0, bootstrap_epochs=0, **server),
    )
    _, state = run_all_rounds(cfg)
    return state.server_lr


def test_learning_rate_decay_paper_values():
    assert _lr_after(1, learning_rate=0.001, lr_decay=0.995) == pytest.approx(
        0.000995, abs=1e-12
    )


def test_learning_rate_decay_identity_when_decay_is_one():
    assert _lr_after(3, learning_rate=0.3, lr_decay=1.0) == 0.3


def test_learning_rate_decay_hundred_rounds_closed_form():
    assert _lr_after(100, learning_rate=0.001, lr_decay=0.995) == pytest.approx(
        0.001 * 0.995**100, abs=1e-12
    )


def test_single_round_yields_single_record():
    records = run_experiment(small_config(rounds=1))
    assert len(records) == 1
    assert records[0].round == 1


def test_server_sl_independent_of_client_count():
    base = small_config(algorithm="server_sl", rounds=3)
    two = run_experiment(dataclasses.replace(base, n_clients=2, clients_per_round=2))
    six = run_experiment(dataclasses.replace(base, n_clients=6, clients_per_round=6))
    assert two == six


def test_fixmatch_threshold_one_filters_nothing():
    cfg = small_config(algorithm="fedavg_fixmatch", fixmatch_threshold=1.0, rounds=3)
    records = run_experiment(cfg)
    assert all(size == 0 for rec in records for size in rec.pos_sizes)
    assert all(size == 0 for rec in records for size in rec.neg_sizes)


def test_noop_clients_reduce_fedseal_to_server_sl_exactly():
    # lambda_max = 0 plus a theta no confidence ever reaches: every client
    # update is a no-op and the global trajectory must equal server-only
    # training exactly.
    base = small_config(rounds=4)
    noop_client = replace(base.client, lambda_max=0.0, theta=1e-9)
    fed_cfg = dataclasses.replace(base, client=noop_client)
    fed_records, fed_state = run_all_rounds(fed_cfg)
    assert all(size == 0 for rec in fed_records for size in rec.neg_sizes)

    sl_records, sl_state = run_all_rounds(
        dataclasses.replace(base, algorithm="server_sl", client=noop_client)
    )
    assert np.array_equal(fed_state.global_params.values, sl_state.global_params.values)
    assert [r.test_accuracy for r in fed_records] == [r.test_accuracy for r in sl_records]


def test_fedavg_sl_reduces_to_textbook_fedavg():
    # No server epochs, no bootstrap training: after round 2 the global model
    # is exactly the mean of the two locals trained independently in round 1.
    cfg = small_config(
        algorithm="fedavg_sl",
        rounds=2,
        n_clients=2,
        clients_per_round=2,
        server=ServerConfig(epochs=0, batch_size=16, learning_rate=0.08, bootstrap_epochs=0),
    )
    _, state = run_all_rounds(cfg)

    split = load_split(cfg.data, cfg.n_clients, cfg.seed)
    dims = (split.feature_width, *cfg.hidden_dims, split.n_classes)
    weak = partial(augment_weak, image_shape=None)
    w0 = bootstrap(split.server_train, cfg.server, stream(cfg.seed, "bootstrap"), dims, weak)
    locals_ = []
    for k in range(2):
        shard = split.client_train[k]
        labeled = Collection(shard.X, split.hidden_labels(k))
        locals_.append(
            server_train(w0, labeled, cfg.client, stream(cfg.seed, "client", k, 1), weak)
        )
    coordinate_mean = (locals_[0].values + locals_[1].values) / 2
    np.testing.assert_allclose(
        state.global_params.values, coordinate_mean, rtol=1e-12, atol=1e-15
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_full_run_deterministic_including_parallel_clients(algorithm):
    cfg = small_config(algorithm, rounds=3)
    serial = run_experiment(cfg)
    again = run_experiment(small_config(algorithm, rounds=3))
    parallel = run_experiment(small_config(algorithm, rounds=3, parallel_clients=3))
    assert serial == again
    assert serial == parallel


def test_theta_warning_when_above_class_count_inverse():
    cfg = small_config(rounds=1)
    cfg.client.theta = 0.5  # 1/M = 0.25 for 4 classes
    with pytest.warns(UserWarning, match="theta"):
        run_experiment(cfg)


def test_full_round_loop_on_idx_image_data(tmp_path):
    # End to end through the image path: IDX ingestion, split carving, and
    # image-mode weak/strong augmentation inside both training loops.
    import struct

    rng = stream(7, "idx-e2e")
    # Class = position of a bright horizontal band: survives flips (the
    # patterns are left-right symmetric) and +-2px crops, unlike per-pixel
    # noise patterns which augmentation would scramble into label noise.
    centers = np.full((3, 8, 8), 0.1)
    for m, row in enumerate((0, 3, 6)):
        centers[m, row : row + 2, :] = 0.9
    centers = centers.reshape(3, 64)

    def write_pair(prefix, n):
        labels = np.arange(n) % 3
        pixels = np.clip(centers[labels] + rng.normal(0, 0.05, (n, 64)), 0, 1)
        with open(tmp_path / f"{prefix}-images", "wb") as f:
            f.write(struct.pack(">IIII", 0x803, n, 8, 8))
            f.write((pixels * 255).astype(np.uint8).tobytes())
        with open(tmp_path / f"{prefix}-labels", "wb") as f:
            f.write(struct.pack(">II", 0x801, n))
            f.write(labels.astype(np.uint8).tobytes())

    write_pair("train", 240)
    write_pair("test", 60)
    cfg = small_config(
        rounds=2,
        data=DataConfig(
            kind="idx",
            train_images=str(tmp_path / "train-images"),
            train_labels=str(tmp_path / "train-labels"),
            test_images=str(tmp_path / "test-images"),
            test_labels=str(tmp_path / "test-labels"),
            image_height=8,
            image_width=8,
            per_client=30,
            server_train_n=30,
            server_val_n=15,
            test_n=60,
        ),
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first == second
    assert len(first) == 2
    assert sum(first[0].pos_sizes) + sum(first[0].neg_sizes) > 0


# ---------------------------------------------------------------------------
# Desk-scale ordering smoke (synthetic stand-in for the full experiments)
# ---------------------------------------------------------------------------


def ordering_config(algorithm, seed) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algorithm, n_clients=5, clients_per_round=5, rounds=40, seed=seed,
        hidden_dims=(24, 12),
        server=ServerConfig(epochs=3, batch_size=20, learning_rate=0.15, bootstrap_epochs=30),
        client=ClientConfig(
            epochs=1, batch_size=32, learning_rate=0.15, theta=0.05,
            lambda_ramp_rounds=10,
        ),
        data=DataConfig(
            kind="synthetic", n_classes=5, n_features=16, spread=0.25,
            per_client=100, server_train_n=20, server_val_n=30, test_n=250,
        ),
    )


def test_ordering_and_rate_claims_on_synthetic_data():
    seeds = (1, 2, 3)
    finals = {}
    fed_records = {}
    for algorithm in ("fedseal", "server_sl", "fedavg_sl"):
        accs = []
        for seed in seeds:
            records = run_experiment(ordering_config(algorithm, seed))
            accs.append(records[-1].test_accuracy)
            if algorithm == "fedseal":
                fed_records[seed] = records
        finals[algorithm] = float(np.median(accs))

    # Unlabeled client data should help, and the label oracle should win.
    assert finals["fedseal"] >= finals["server_sl"] + 0.01
    assert finals["fedavg_sl"] >= finals["fedseal"]

    # Early-round complementary labels are far more reliable than pseudo-labels.
    for seed in seeds:
        early = fed_records[seed][:10]
        pos = [r.pos_correct_rate for r in early if r.pos_correct_rate is not None]
        neg = [r.neg_correct_rate for r in early if r.neg_correct_rate is not None]
        assert np.mean(neg) > np.mean(pos)
