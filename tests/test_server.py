"""Server side: aggregation, supervised training, thresholds, bootstrap."""

import numpy as np
import pytest

from fedseal import (
    Collection,
    ModelParams,
    OptimizerState,
    ServerConfig,
    aggregate,
    batch_loss,
    bootstrap,
    compute_thresholds,
    evaluate,
    forward_batch,
    gradient,
    init_params,
    server_train,
    sgd_step,
    stream,
    synthetic_blobs,
)
from fedseal.nn import shapes_for

from conftest import labeled_rows, make_params


def blobs(*args, **kwargs) -> Collection:
    X, y = synthetic_blobs(*args, **kwargs)
    return Collection(X, y)


def params_from(values) -> ModelParams:
    # dims (1, 1) gives exactly two parameters: one weight, one bias.
    return ModelParams(np.asarray(values, dtype=float), shapes_for((1, 1)))


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_aggregate_single_model_unchanged():
    model = make_params((3, 4, 2), seed=0)
    np.testing.assert_array_equal(aggregate([model]).values, model.values)


def test_aggregate_two_models():
    avg = aggregate([params_from([0.0, 2.0]), params_from([2.0, 0.0])])
    np.testing.assert_array_equal(avg.values, [1.0, 1.0])


def test_aggregate_matches_per_coordinate_mean():
    rng = stream(1, "agg")
    models = [make_params((4, 5, 3), seed=s) for s in range(5)]
    averaged = aggregate(models)
    for j in range(models[0].values.size):
        coordinate_mean = sum(m.values[j] for m in models) / 5
        assert averaged.values[j] == pytest.approx(coordinate_mean, rel=1e-12)


def test_aggregate_empty_is_error():
    with pytest.raises(ValueError, match="empty"):
        aggregate([])


def test_aggregate_layout_mismatch():
    with pytest.raises(ValueError, match="layout"):
        aggregate([make_params((2, 3, 2), seed=0), make_params((2, 4, 2), seed=0)])


def test_aggregate_idempotent_on_identical_inputs_exactly():
    model = make_params((5, 6, 4), seed=2)
    for copies in (2, 3, 7, 10):
        out = aggregate([model] * copies)
        assert np.array_equal(out.values, model.values)


def test_aggregate_permutation_invariant():
    models = [make_params((3, 4, 2), seed=s) for s in range(6)]
    forward_order = aggregate(models)
    reversed_order = aggregate(models[::-1])
    np.testing.assert_allclose(
        forward_order.values, reversed_order.values, rtol=1e-12, atol=1e-15
    )


# ---------------------------------------------------------------------------
# server_train
# ---------------------------------------------------------------------------


def test_server_train_zero_lr_keeps_model():
    data = labeled_rows(20, 4, 3, seed=3)
    model = make_params((4, 6, 3), seed=3)
    cfg = ServerConfig(epochs=3, batch_size=8, learning_rate=0.0, momentum=0.9)
    trained = server_train(model, data, cfg, stream(3, "srv"))
    np.testing.assert_array_equal(trained.values, model.values)


def test_server_train_single_full_batch_equals_one_sgd_step():
    data = labeled_rows(12, 3, 2, seed=4)
    model = make_params((3, 5, 2), seed=4)
    cfg = ServerConfig(epochs=1, batch_size=12, learning_rate=0.1, momentum=0.0)
    trained = server_train(model, data, cfg, stream(4, "srv"))

    opt = OptimizerState(model, 0.1, 0.0)
    sgd_step(opt, gradient(model, data.X, data.y, False, 1.0))
    np.testing.assert_allclose(trained.values, opt.result().values, rtol=1e-12, atol=1e-15)


def test_server_train_drives_loss_down_on_separable_data():
    data = blobs(60, 3, 8, stream(5, "blobs"), spread=0.05)
    model = init_params((8, 16, 3), stream(5, "init"))
    cfg = ServerConfig(epochs=50, batch_size=16, learning_rate=0.2, momentum=0.9)
    trained = server_train(model, data, cfg, stream(5, "srv"))
    assert batch_loss(trained, data.X, data.y, False, 1.0) < 0.1


def test_server_train_does_not_mutate_input_model():
    data = labeled_rows(10, 3, 2, seed=6)
    model = make_params((3, 4, 2), seed=6)
    before = model.values.copy()
    server_train(model, data, ServerConfig(epochs=2, batch_size=4, learning_rate=0.1),
                 stream(6, "srv"))
    np.testing.assert_array_equal(model.values, before)


def test_server_train_empty_dataset_is_error():
    with pytest.raises(ValueError, match="empty"):
        server_train(make_params((2, 3, 2), seed=0), labeled_rows(0, 2, 2, seed=0),
                     ServerConfig(), stream(0, "x"))


# ---------------------------------------------------------------------------
# compute_thresholds
# ---------------------------------------------------------------------------


def one_hot_classifier(n_classes: int) -> ModelParams:
    # Single layer with huge identity logits: on one-hot inputs the softmax
    # rounds to an exact one-hot distribution in float64.
    shapes = shapes_for((n_classes, n_classes))
    return ModelParams(
        np.concatenate([(200.0 * np.eye(n_classes)).ravel(), np.zeros(n_classes)]),
        shapes,
    )


def one_hot_rows(labels: list[int], n_classes: int) -> Collection:
    return Collection(np.eye(n_classes)[labels], labels)


def test_thresholds_perfect_classifier_gives_ones():
    model = one_hot_classifier(4)
    val = one_hot_rows([0, 1, 2, 3, 1, 2], 4)
    taus = compute_thresholds(model, val)
    np.testing.assert_array_equal(taus, np.ones(4))


def test_thresholds_match_direct_formula():
    # Oracle: transcribe the sum directly from forward outputs.
    model = make_params((5, 7, 4), seed=7)
    val = labeled_rows(6, 5, 4, seed=7)
    taus = compute_thresholds(model, val)

    probs = forward_batch(model, val.X)
    preds = probs.argmax(axis=1)
    for m in range(4):
        den = sum(1 for label in val.y if label == m)
        num = sum(probs[i, m] for i in range(6) if preds[i] == m)
        expected = min(num / den, 1.0) if den else 1.0
        assert taus[m] == pytest.approx(expected, rel=1e-12)


def test_thresholds_absent_class_falls_back_to_one():
    model = make_params((3, 5, 4), seed=8)
    rows = labeled_rows(12, 3, 4, seed=8)
    keep = rows.y != 2
    val = Collection(rows.X[keep], rows.y[keep])
    assert len(val) > 0
    taus = compute_thresholds(model, val)
    assert taus[2] == 1.0


def test_thresholds_clamped_to_one():
    # A constant-class model pushes the class-0 numerator above its
    # denominator; the raw ratio exceeds 1 and must clamp.
    model = one_hot_classifier(3)
    features = np.zeros((6, 3))
    features[:, 0] = 1.0  # every instance predicted as class 0
    val = Collection(features, [0, 1, 1, 2, 2, 2])
    probs = forward_batch(model, val.X)
    assert probs[:, 0].sum() > 1.0  # raw numerator for class 0
    taus = compute_thresholds(model, val)
    assert taus[0] == 1.0
    assert np.all((taus >= 0.0) & (taus <= 1.0))


def test_thresholds_empty_validation_is_error():
    with pytest.raises(ValueError, match="empty"):
        compute_thresholds(make_params((2, 3, 2), seed=0), labeled_rows(0, 2, 2, seed=0))


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_zero_epochs_returns_random_init():
    data = labeled_rows(10, 4, 3, seed=10)
    cfg = ServerConfig(bootstrap_epochs=0)
    model = bootstrap(data, cfg, stream(10, "boot"), dims=(4, 6, 3))
    reference = init_params((4, 6, 3), stream(10, "boot"))
    np.testing.assert_array_equal(model.values, reference.values)


def test_bootstrap_fixed_seed_bit_identical():
    data = blobs(30, 3, 5, stream(11, "blobs"))
    cfg = ServerConfig(bootstrap_epochs=10, batch_size=8, learning_rate=0.05)
    a = bootstrap(data, cfg, stream(11, "boot"), dims=(5, 8, 3))
    b = bootstrap(data, cfg, stream(11, "boot"), dims=(5, 8, 3))
    np.testing.assert_array_equal(a.values, b.values)


def test_bootstrap_learns_three_class_blobs():
    X, y = synthetic_blobs(210, 3, 8, stream(12, "blobs"), spread=0.08)
    train = Collection(X[:90], y[:90])
    test = Collection(X[90:], y[90:])
    cfg = ServerConfig(bootstrap_epochs=60, batch_size=16, learning_rate=0.2, momentum=0.9)
    model = bootstrap(train, cfg, stream(12, "boot"), dims=(8, 16, 3))
    assert evaluate(model, test) > 0.7
