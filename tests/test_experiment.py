"""Round loop, baselines, sampling, metrics, determinism, ordering."""

import dataclasses
import itertools
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fedseal import (
    ALGORITHMS,
    ClientConfig,
    Collection,
    DataConfig,
    ExperimentConfig,
    FilteredSets,
    ServerConfig,
    aggregate,
    client_train,
    evaluate,
    experiment,
    label_correct_rates,
    parse_config,
    run_experiment,
    sample_clients,
    server_train,
    start,
    stream,
    update_ensemble,
)
from fedseal.config import with_overrides
from fedseal.experiment import run_round
from fedseal.nn import ModelParams, forward_batch, param_count, shapes_for

from conftest import (
    BUNDLED_SYNTHETIC,
    REPO_ROOT,
    labeled_rows,
    make_params,
    reference_round,
    rel_error,
    run_all_rounds,
    write_idx,
)


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
    # Collection refuses such a test set where it is built, so none reaches evaluate.
    model = make_params((2, 3, 2), seed=0)
    with pytest.raises(ValueError, match="at least one row"):
        evaluate(model, labeled_rows(0, 2, 2, seed=0))
    with pytest.raises(TypeError, match="'y'"):
        evaluate(model, Collection(np.zeros((1, 2))))
    with pytest.raises(ValueError, match="every row must be labeled"):
        evaluate(model, Collection(np.zeros((1, 2)), [-1]))


def test_whole_collection_passes_make_one_forward_batch_call(monkeypatch):
    # forward_batch blocks its rows internally; the benchmark's trace counts
    # its calls and rows, so each whole-collection pass must stay one call.
    rows = []

    def counting_forward_batch(params, features):
        rows.append(len(features))
        return forward_batch(params, features)

    monkeypatch.setattr("fedseal.nn.forward_batch", counting_forward_batch)
    model = make_params((5, 8, 3), seed=1)
    evaluate(model, labeled_rows(600, 5, 3, seed=1))
    assert rows == [600]
    update_ensemble(None, 1, model, labeled_rows(600, 5, 3, seed=2).X)
    assert rows == [600, 600]


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

    cfg = parse_config(BUNDLED_SYNTHETIC)
    ours, theirs = start(cfg), bench.set_up(cfg)
    assert ours.global_params.values.tobytes() == theirs.global_params.values.tobytes()
    assert ours.global_params.shapes == theirs.global_params.shapes
    for name in ("server_train", "server_val", "test"):
        a, b = getattr(ours.split, name), getattr(theirs.split, name)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
    assert len(ours.split.client_train) == len(theirs.split.client_train) == cfg.n_clients
    for k, (a, b) in enumerate(zip(ours.split.client_train, theirs.split.client_train)):
        np.testing.assert_array_equal(a, b)
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


@pytest.mark.parametrize("n_clients, clients_per_round, images",
                         [(3, 3, False), (4, 2, False), (3, 3, True), (4, 2, True)],
                         ids=["full", "partial", "full_images", "partial_images"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_round_computes_the_reference_round(algorithm, n_clients, clients_per_round,
                                                images, float64_params):
    # Three float64 rounds against conftest.reference_round from one start state,
    # on vectors and on 8 x 8 images.  Server and clients decay their rates
    # apart, and fedavg_fixmatch's threshold is one that this small model's
    # confidence reaches.  As images the model stays near chance, so there a
    # looser theta and threshold, and seed 1, give every round positive rows.
    cfg = small_config(algorithm, seed=8, n_clients=n_clients,
                       clients_per_round=clients_per_round, fixmatch_threshold=0.6)
    cfg = replace(cfg, server=replace(cfg.server, lr_decay=0.5),
                  client=replace(cfg.client, lr_decay=0.9))
    if images:
        cfg = replace(cfg, seed=1, fixmatch_threshold=0.3, client=replace(cfg.client, theta=0.2),
                      data=replace(cfg.data, n_features=64, image_height=8, image_width=8))
    state = start(cfg)
    expected, ref = reference_round(state, cfg.rounds)
    records = [run_round(state, t)[1] for t in range(1, cfg.rounds + 1)]

    def floats(rec):
        return [rec.test_accuracy, *rec.taus, rec.pos_correct_rate, rec.neg_correct_rate,
                rec.lambda_weight]

    close = partial(pytest.approx, rel=1e-9, abs=0)
    for got, want in zip(records, expected, strict=True):
        assert (got.round, got.pos_sizes, got.neg_sizes) == (want.round, want.pos_sizes,
                                                             want.neg_sizes)
        assert floats(got) == close(floats(want))
    assert (state.server_lr, state.client_lr) == close((ref.server_lr, ref.client_lr))
    assert state.global_params.values.dtype == np.float64
    assert rel_error(state.global_params.values, ref.global_params.values) <= 1e-9
    for got, want in zip(state.ensembles, ref.ensembles, strict=True):
        assert want is None if got is None else rel_error(got, want) <= 1e-9
    assert (ref.upload_mean is None if not state.uploads
            else rel_error(aggregate(state.uploads).values, ref.upload_mean) <= 1e-9)
    # Every lambda-weighted loss has rows to weigh, and once an ensemble
    # holds two models the ablation filters apart from fedseal.
    assert expected[0].lambda_weight is None or all(sum(r.pos_sizes) for r in expected)
    if algorithm == "fedseal_no_ensemble":
        full, _ = reference_round(start(replace(cfg, algorithm="fedseal")), cfg.rounds)
        assert [(r.pos_sizes, r.neg_sizes) for r in expected[1:]] != [
            (r.pos_sizes, r.neg_sizes) for r in full[1:]]


def test_uploads_are_freed_once_aggregated(monkeypatch):
    # Each upload is folded as it arrives: when a sampled client starts
    # training, of the local models before it in its round only the first is
    # alive, held as the fold's first model, and none of the last round's,
    # which the round averaged before its server training.
    round_now = [0]
    uploads = {}  # round -> weakrefs to its uploads, in training order
    seen = []  # (round, previous round's uploads alive, this round's uploads alive)

    def recording_client_train(*args):
        t = round_now[0]
        seen.append((t, [ref() is not None for ref in uploads.get(t - 1, [])],
                     [ref() is not None for ref in uploads.get(t, [])]))
        if uploads.get(t):
            assert uploads[t][0]() is state.uploads.first
        local = client_train(*args)
        uploads.setdefault(t, []).append(weakref.ref(local))
        return local

    monkeypatch.setattr("fedseal.experiment.client_train", recording_client_train)
    cfg = small_config(rounds=3)
    state = start(cfg)
    for t in range(1, cfg.rounds + 1):
        round_now[0] = t
        state, _ = run_round(state, t)
    n = cfg.clients_per_round
    assert [len(uploads[t]) for t in (1, 2, 3)] == [n] * 3
    # Before round t's client i trains: of round t's uploads 0..i-1 only the first is alive.
    assert seen == [(t, [False] * (n if t > 1 else 0), [j == 0 for j in range(i)])
                    for t in (1, 2, 3) for i in range(n)]


def test_server_training_releases_w_bar_and_the_last_global_model(monkeypatch):
    # Once server training has returned, neither the average it started from
    # nor the last round's model (the bootstrap model in round 1) is alive
    # while the clients train.
    refs = {}  # round -> weakrefs to that round's w_bar and last global model
    seen = []  # (round, liveness of each) at every client training

    def recording_aggregate(uploads, aggregate=experiment.aggregate):
        w_bar = aggregate(uploads)
        refs[round_now].append(weakref.ref(w_bar))
        return w_bar

    def recording_client_train(*args):
        seen.append((round_now, [ref() is not None for ref in refs[round_now]]))
        return client_train(*args)

    monkeypatch.setattr(experiment, "aggregate", recording_aggregate)
    monkeypatch.setattr(experiment, "client_train", recording_client_train)
    cfg = small_config(rounds=3)
    state = start(cfg)
    for round_now in range(1, cfg.rounds + 1):
        refs[round_now] = [weakref.ref(state.global_params)]
        state, _ = run_round(state, round_now)
    n = cfg.clients_per_round
    assert seen == [(1, [False])] * n + [(2, [False, False])] * n + [(3, [False, False])] * n


def test_round_peak_does_not_grow_with_the_clients_sampled():
    # The paper's 784-128-64-10 model over 28 x 28 images, with few rows.
    # Holding every upload until the next round averages them would add a
    # parameter vector to a round's traced peak for each client sampled.
    def round_peak(clients_per_round: int) -> int:
        cfg = ExperimentConfig(
            n_clients=8, clients_per_round=clients_per_round, rounds=2, seed=5,
            server=ServerConfig(epochs=1, batch_size=16, bootstrap_epochs=1),
            client=ClientConfig(epochs=1, batch_size=16),
            data=DataConfig(n_classes=10, n_features=784, image_height=28, image_width=28,
                            per_client=30, server_train_n=40, server_val_n=20, test_n=40),
        )
        state, _ = run_round(start(cfg), 1)
        tracemalloc.start()
        try:
            run_round(state, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    vector = param_count(shapes_for((784, 128, 64, 10))) * np.dtype(np.float32).itemsize
    grown = round_peak(8) - round_peak(2)
    assert grown < vector, grown / vector


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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_full_run_deterministic_including_parallel_clients(algorithm, monkeypatch):
    cfg = small_config(algorithm, rounds=3)
    serial = run_experiment(cfg)
    again = run_experiment(small_config(algorithm, rounds=3))
    if algorithm == "fedseal":
        # The first two client trainings meet at a barrier, which a serial
        # run breaks after its timeout: the parallel run must use the pool.
        barrier, calls = threading.Barrier(2, timeout=10), itertools.count()

        def meeting(*args, train=experiment.client_train):
            if next(calls) < 2:
                barrier.wait()
            return train(*args)

        monkeypatch.setattr(experiment, "client_train", meeting)
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
        write_idx(tmp_path / f"{prefix}-images", (pixels * 255).reshape(n, 8, 8))
        write_idx(tmp_path / f"{prefix}-labels", labels)

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
    """``synthetic_small.ini`` for 40 rounds, with 20 labeled server rows."""
    cfg = with_overrides(parse_config(BUNDLED_SYNTHETIC), seed=seed, rounds=40,
                         algorithm=algorithm)
    return replace(cfg, data=replace(cfg.data, server_train_n=20))


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
