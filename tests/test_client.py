"""Client side: self-ensemble, filtering, complementary labels, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedseal import (
    ClientConfig,
    FilteredSets,
    ModelParams,
    build_negative_set,
    build_positive_set,
    client_train,
    forward_batch,
    gradient,
    init_params,
    lambda_at,
    sgd_step,
    stream,
    update_ensemble,
)
from fedseal.data import augment_strong

from conftest import fd_gradient, make_params, reference_negative_set, rel_error


def unlabeled(n: int, width: int, seed: int) -> np.ndarray:
    rng = stream(seed, "client-data")
    return np.stack([rng.random(width) for _ in range(n)])


def conf_matrix(rows) -> np.ndarray:
    return np.asarray(rows, dtype=float)


def pairs(rows_and_labels) -> list[tuple[int, int]]:
    rows, labels = rows_and_labels
    return [(int(r), int(y)) for r, y in zip(rows, labels)]


# ---------------------------------------------------------------------------
# update_ensemble
# ---------------------------------------------------------------------------


def test_first_update_stores_forward_outputs_exactly():
    data = unlabeled(7, 4, seed=0)
    model = make_params((4, 6, 3), seed=0)
    avg = update_ensemble(None, 1, model, data)
    expected = forward_batch(model, data)
    np.testing.assert_array_equal(avg, expected)
    # At t == 1 any previous matrix is ignored.
    np.testing.assert_array_equal(update_ensemble(np.zeros((7, 3)), 1, model, data), expected)


def test_same_model_twice_leaves_average_unchanged():
    data = unlabeled(5, 4, seed=1)
    model = make_params((4, 6, 3), seed=1)
    once = update_ensemble(None, 1, model, data)
    twice = update_ensemble(once, 2, model, data)
    np.testing.assert_array_equal(twice, once)


def test_incremental_average_equals_batch_mean_of_three_models():
    data = unlabeled(9, 5, seed=2)
    models = [make_params((5, 7, 4), seed=s, dtype=np.float64) for s in (10, 11, 12)]
    avg = ensemble_of(models, data)
    batch_mean = np.mean([forward_batch(m, data) for m in models], axis=0)
    np.testing.assert_allclose(avg, batch_mean, atol=1e-12)


def test_incremental_average_drift_over_hundred_updates():
    data = unlabeled(4, 3, seed=3)
    models = [make_params((3, 5, 3), seed=s, dtype=np.float64) for s in range(100)]
    avg = ensemble_of(models, data)
    batch_mean = np.mean([forward_batch(m, data) for m in models], axis=0)
    np.testing.assert_allclose(avg, batch_mean, atol=1e-12)


def test_update_rejects_changed_instance_set():
    model = make_params((4, 6, 3), seed=4)
    data = unlabeled(5, 4, seed=4)
    avg = update_ensemble(None, 1, model, data)
    with pytest.raises(ValueError, match="different instance set"):
        update_ensemble(avg, 2, model, unlabeled(6, 4, seed=5))
    with pytest.raises(ValueError, match="needs the mean of the first 1"):
        update_ensemble(None, 2, model, data)


def test_update_rejects_an_ensemble_of_no_models():
    model = make_params((4, 6, 3), seed=4)
    with pytest.raises(ValueError, match="ensemble size must be >= 1"):
        update_ensemble(None, 0, model, unlabeled(5, 4, seed=4))


# ---------------------------------------------------------------------------
# pseudo-labels: build_positive_set with zero thresholds keeps every row
# ---------------------------------------------------------------------------


def test_pseudo_label_argmax_and_confidence():
    conf = conf_matrix([[0.1, 0.8, 0.1]])
    rows, labels = build_positive_set(conf, np.zeros(3))
    assert rows.tolist() == [0] and labels.tolist() == [1]
    # The row clears its class threshold exactly up to its confidence, 0.8.
    assert build_positive_set(conf, np.array([0.0, 0.8, 0.0]))[0].tolist() == [0]
    assert build_positive_set(conf, np.array([0.0, np.nextafter(0.8, 1), 0.0]))[0].size == 0


def test_pseudo_label_uniform_breaks_tie_low():
    conf = conf_matrix([[0.25, 0.25, 0.25, 0.25]])
    assert build_positive_set(conf, np.zeros(4))[1].tolist() == [0]


def test_pseudo_label_matches_exhaustive_scan():
    rng = stream(6, "scan")
    rows = rng.dirichlet(np.ones(7), size=500)
    kept, labels = build_positive_set(rows, np.zeros(7))
    assert kept.tolist() == list(range(500))
    for i in range(500):
        best, best_p = 0, rows[i][0]
        for m in range(1, 7):
            if rows[i][m] > best_p:
                best, best_p = m, rows[i][m]
        assert labels[i] == best


# ---------------------------------------------------------------------------
# positive / negative filtering
# ---------------------------------------------------------------------------


def filter_fixture(seed: int, n: int = 20, n_classes: int = 5) -> np.ndarray:
    return stream(seed, "filters").dirichlet(np.ones(n_classes) * 0.6, size=n)


def test_positive_set_zero_thresholds_keeps_everything():
    conf = filter_fixture(7)
    assert len(build_positive_set(conf, np.zeros(5))[0]) == 20


def test_positive_set_unit_thresholds_empty():
    conf = filter_fixture(8)
    assert conf.max() < 1.0
    assert pairs(build_positive_set(conf, np.ones(5))) == []


def test_positive_set_matches_brute_force_comparison():
    rows = filter_fixture(9)
    taus = stream(9, "taus").uniform(0.1, 0.9, 5)
    got = pairs(build_positive_set(rows, taus))
    expected = []
    for i in range(20):
        label = int(np.argmax(rows[i]))
        if rows[i][label] >= taus[label]:
            expected.append((i, label))
    assert got == expected


def test_positive_set_monotone_in_tau():
    conf = filter_fixture(10)
    taus = stream(10, "taus").uniform(0.2, 0.8, 5)
    base = set(pairs(build_positive_set(conf, taus)))
    for m in range(5):
        lowered = taus.copy()
        lowered[m] *= 0.5
        assert base <= set(pairs(build_positive_set(conf, lowered)))


def test_negative_set_singleton_candidate():
    conf = conf_matrix([[0.9, 0.02, 0.08]])
    got = build_negative_set(conf, np.ones(3), 0.05, stream(0, "neg"))
    assert pairs(got) == [(0, 1)]


def test_negative_set_candidate_at_exactly_theta():
    conf = conf_matrix([[0.375, 0.375, 0.25]])
    got = build_negative_set(conf, np.ones(3), 0.25, stream(0, "neg"))
    assert pairs(got) == [(0, 2)]


def test_negative_set_skips_when_no_class_below_theta():
    conf = conf_matrix([[0.4, 0.3, 0.3]])
    assert pairs(build_negative_set(conf, np.ones(3), 0.05, stream(0, "neg"))) == []


def test_negative_set_disjoint_from_positive_over_random_configs():
    for trial in range(1000):
        rng = stream(trial, "disjoint")
        n, n_classes = 8, 4
        rows = rng.dirichlet(np.ones(n_classes) * 0.4, size=n)
        taus = rng.uniform(0.0, 1.0, n_classes)
        theta = float(rng.uniform(0.01, 0.4))
        pos_rows = set(build_positive_set(rows, taus)[0].tolist())
        neg = pairs(build_negative_set(rows, taus, theta, rng))
        neg_rows = {i for i, _ in neg}
        assert pos_rows.isdisjoint(neg_rows)
        assert len(pos_rows | neg_rows) <= n
        for i, comp in neg:
            assert rows[i][comp] <= theta


def random_models(t: int, dims, seed: int) -> list[ModelParams]:
    """t random float64 models; scaling the weights spreads their confidence from flat to sharp."""
    rng = stream(seed, "prop-models")
    models = []
    for i in range(t):
        model = init_params(dims, stream(seed, "prop-model", i))
        models.append(model.with_values(model.values.astype(np.float64) * rng.uniform(0.5, 20.0)))
    return models


def ensemble_of(models: list[ModelParams], X: np.ndarray) -> np.ndarray:
    avg = None
    for t, model in enumerate(models, start=1):
        avg = update_ensemble(avg, t, model, X)
    return avg


shards = dict(
    n=st.integers(1, 30),
    width=st.integers(1, 8),
    n_classes=st.integers(2, 6),
    t=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=100)
@given(theta=st.floats(0.0, 1.0), **shards)
def test_filtered_sets_are_disjoint_and_complementary_labels_are_below_theta(
    n, width, n_classes, t, seed, theta
):
    X = stream(seed, "prop-shard").random((n, width))
    conf = ensemble_of(random_models(t, (width, 6, n_classes), seed), X)
    rng = stream(seed, "prop-filter")
    taus = rng.uniform(0.0, 1.0, n_classes)
    pos_rows, _ = build_positive_set(conf, taus)
    neg_rows, comp = build_negative_set(conf, taus, theta, rng)
    assert (conf[neg_rows, comp] <= theta).all()
    assert np.intersect1d(pos_rows, neg_rows).size == 0


@settings(max_examples=100)
@given(**shards)
def test_ensemble_is_the_mean_of_its_models_outputs(n, width, n_classes, t, seed):
    X = stream(seed, "prop-shard").random((n, width))
    models = random_models(t, (width, 6, n_classes), seed)
    avg = ensemble_of(models, X)
    expected = np.mean([forward_batch(model, X) for model in models], axis=0)
    np.testing.assert_allclose(avg, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(50))
def test_negative_set_matches_per_row_reference(seed):
    # One vectorized draw must give the same pairs, and leave the generator
    # in the same state, as one scalar draw per eligible row.  Low
    # concentration and a wide theta range give rows with no candidate
    # class, rows with several, and (with low taus) all-positive shards.
    rng = stream(seed, "neg-oracle")
    n, n_classes = int(rng.integers(1, 40)), int(rng.integers(2, 8))
    rows = rng.dirichlet(np.ones(n_classes) * rng.uniform(0.1, 2.0), size=n)
    taus = rng.uniform(0.0, 1.0 if seed % 5 else 0.05, n_classes)
    theta = float(rng.uniform(0.001, 0.5))
    got_rng, ref_rng = stream(seed, "neg-draws"), stream(seed, "neg-draws")
    got = pairs(build_negative_set(rows, taus, theta, got_rng))
    assert got == reference_negative_set(rows, taus, theta, ref_rng)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_negative_set_all_positive_shard_draws_nothing():
    conf = conf_matrix([[0.9, 0.05, 0.05], [0.02, 0.96, 0.02]])
    rng, untouched = stream(1, "neg"), stream(1, "neg")
    assert pairs(build_negative_set(conf, np.zeros(3), 0.1, rng)) == []
    assert rng.bit_generator.state == untouched.bit_generator.state


# ---------------------------------------------------------------------------
# lambda schedule
# ---------------------------------------------------------------------------


def test_lambda_first_round():
    assert lambda_at(1, ClientConfig()) == pytest.approx(1 / 30)


def test_lambda_saturates():
    cfg = ClientConfig(lambda_max=0.7, lambda_ramp_rounds=10)
    assert lambda_at(10, cfg) == 0.7
    assert lambda_at(500, cfg) == 0.7


def test_lambda_midpoint():
    assert lambda_at(15, ClientConfig(lambda_max=1.0, lambda_ramp_rounds=30)) == 0.5


def test_lambda_requires_round_at_least_one():
    with pytest.raises(ValueError, match=">= 1"):
        lambda_at(0, ClientConfig())


# ---------------------------------------------------------------------------
# client_train
# ---------------------------------------------------------------------------


def test_client_train_no_sets_returns_global_unchanged():
    data = unlabeled(6, 4, seed=11)
    model = make_params((4, 6, 3), seed=11)
    out = client_train(model, FilteredSets(), data, ClientConfig(), 1.0, stream(11, "c"))
    np.testing.assert_array_equal(out.values, model.values)


def test_client_train_positive_only_matches_pseudo_label_oracle():
    # With no negative set and lambda = 1 the trajectory must equal plain
    # pseudo-label SGD; the oracle below re-implements that loop directly.
    data = unlabeled(10, 4, seed=12)
    model = make_params((4, 6, 3), seed=12)
    pseudo = [(i, i % 3) for i in range(len(data))]
    cfg = ClientConfig(epochs=2, batch_size=4, learning_rate=0.05, momentum=0.9)
    trained = client_train(
        model, FilteredSets(tuple(zip(*pseudo))), data, cfg, lam=1.0,
        rng=stream(12, "train"), strong_augment_fn=augment_strong,
    )

    rng = stream(12, "train")
    values = model.values.copy()
    velocity, scratch = np.zeros_like(values), np.empty_like(values)
    for _ in range(2):
        order = rng.permutation(len(pseudo))
        for start in range(0, len(pseudo), 4):
            picked = [pseudo[i] for i in order[start : start + 4]]
            x = augment_strong(data[[row for row, _ in picked]], rng)
            grad = gradient(model.with_values(values), x, [label for _, label in picked])
            sgd_step(values, velocity, grad, cfg, scratch)
    np.testing.assert_array_equal(trained.values, values)


def test_client_combined_loss_gradient_matches_finite_differences():
    model = make_params((3, 5, 4), seed=13, dtype=np.float64)
    rng = stream(13, "mix")
    pos = [(rng.random(3), int(rng.integers(0, 4))) for _ in range(3)]
    neg = [(rng.random(3), int(rng.integers(0, 4))) for _ in range(3)]
    lam = 0.37

    pos_batch = (np.stack([x for x, _ in pos]), [y for _, y in pos], False)
    neg_batch = (np.stack([x for x, _ in neg]), [y for _, y in neg], True)
    analytic = lam * gradient(model, *pos_batch) + gradient(model, *neg_batch)

    from fedseal import batch_loss

    def combined(p):
        return lam * batch_loss(p, *pos_batch) + batch_loss(p, *neg_batch)

    assert rel_error(analytic, fd_gradient(model, combined, h=1e-4)) < 1e-4


def test_client_train_bit_deterministic():
    data = unlabeled(12, 4, seed=14)
    model = make_params((4, 6, 3), seed=14)
    sets = FilteredSets(
        (np.arange(6), np.arange(6) % 3),
        (np.arange(6, 10), (np.arange(6, 10) + 1) % 3),
    )
    cfg = ClientConfig(epochs=2, batch_size=4, learning_rate=0.03)
    a = client_train(model, sets, data, cfg, 0.1, stream(14, "t"), augment_strong)
    b = client_train(model, sets, data, cfg, 0.1, stream(14, "t"), augment_strong)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("name", ["positive", "negative"])
def test_filtered_sets_need_one_label_per_row(name):
    with pytest.raises(ValueError, match=f"{name} set needs one label per row"):
        FilteredSets(**{name: (np.arange(3), np.zeros(2))})


def test_client_train_lambda_zero_and_no_negatives_is_noop():
    data = unlabeled(8, 4, seed=15)
    model = make_params((4, 6, 3), seed=15)
    sets = FilteredSets((np.arange(8), np.zeros(8)))
    out = client_train(model, sets, data, ClientConfig(), 0.0, stream(15, "t"), augment_strong)
    assert np.array_equal(out.values, model.values)


def test_client_train_lambda_zero_trains_only_the_negative_set():
    # At lam = 0 the positive set drops out: it draws no permutation and no
    # augmentation, so the run is negative-only training on the same stream.
    data = unlabeled(12, 4, seed=17)
    model = make_params((4, 6, 3), seed=17)
    negative = (np.arange(8, 12), np.arange(8, 12) % 3)
    both = FilteredSets((np.arange(8), np.arange(8) % 3), negative)
    cfg = ClientConfig(epochs=2, batch_size=3, learning_rate=0.1)
    rng_both, rng_neg = stream(17, "t"), stream(17, "t")
    out = client_train(model, both, data, cfg, 0.0, rng_both, augment_strong)
    expected = client_train(model, FilteredSets(negative=negative), data, cfg, 0.0, rng_neg,
                            augment_strong)
    assert not np.array_equal(out.values, model.values)
    np.testing.assert_array_equal(out.values, expected.values)
    assert rng_both.bit_generator.state == rng_neg.bit_generator.state


def test_client_train_negative_only_component():
    data = unlabeled(8, 4, seed=16)
    model = make_params((4, 6, 3), seed=16, dtype=np.float64)
    sets = FilteredSets(negative=(np.arange(8), np.ones(8)))
    cfg = ClientConfig(epochs=1, batch_size=8, learning_rate=0.1, momentum=0.0)
    out = client_train(model, sets, data, cfg, 1.0, stream(16, "t"))
    # One full batch, momentum 0: exactly one plain SGD step on the
    # complementary loss (row order does not change the mean).
    expected = model.values - 0.1 * gradient(model, data, np.ones(8), negative=True)
    np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-15)
