"""Model core: batch forward/predict, losses, analytic gradients, SGD."""

import math

import numpy as np
import pytest

from fedseal import (
    ModelParams,
    OptimizerState,
    batch_loss,
    forward_batch,
    gradient,
    init_params,
    predict_batch,
    sgd_step,
    stream,
)
from fedseal.nn import param_count, shapes_for, unflatten

from conftest import fd_batch_gradient, make_params, random_batch, reference_loss, rel_error


# ---------------------------------------------------------------------------
# forward_batch
# ---------------------------------------------------------------------------


def test_forward_with_all_zero_parameters_is_uniform():
    params = ModelParams(np.zeros(param_count(shapes_for((4, 5, 3)))), shapes_for((4, 5, 3)))
    probs = forward_batch(params, np.array([[0.3, -1.0, 2.0, 0.7], [0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(probs, np.full((2, 3), 1 / 3), atol=1e-15)


def test_forward_matches_hand_computed_pass():
    # 2-4-3 network with hand-set weights; the expected value is recomputed
    # below with explicit matrix algebra, row by row, independent of the
    # implementation.
    shapes = shapes_for((2, 4, 3))
    w1 = np.array([[0.1, -0.2, 0.3, 0.5], [0.4, 0.2, -0.6, 0.1]])
    b1 = np.array([0.05, -0.1, 0.2, 0.0])
    w2 = np.array(
        [[0.3, -0.4, 0.1], [0.2, 0.2, -0.2], [-0.5, 0.3, 0.4], [0.1, 0.1, 0.1]]
    )
    b2 = np.array([0.01, -0.02, 0.03])
    params = ModelParams(
        np.concatenate([w1.ravel(), b1, w2.ravel(), b2]), shapes
    )
    X = np.array([[0.8, -0.3], [-0.5, 0.9]])

    expected = []
    for x in X:
        hidden = np.tanh(x @ w1 + b1)
        logits = hidden @ w2 + b2
        exps = np.exp(logits - logits.max())
        expected.append(exps / exps.sum())

    np.testing.assert_allclose(forward_batch(params, X), expected, rtol=1e-12)


def test_forward_outputs_sum_to_one_over_random_inputs():
    params = make_params((6, 8, 4), seed=3)
    rng = stream(3, "inputs")
    feats = rng.random((100, 6))
    probs = forward_batch(params, feats)
    assert probs.min() >= 0.0
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(100), atol=1e-6)


def test_forward_rejects_wrong_width():
    params = make_params((4, 6, 3), seed=0)
    with pytest.raises(ValueError, match="expects 4.*got 3"):
        forward_batch(params, np.zeros((2, 3)))
    # A lone row is not a batch.
    with pytest.raises(ValueError, match=r"expects 4.*got \(4,\)"):
        forward_batch(params, np.zeros(4))


def test_forward_deterministic():
    params = make_params((5, 7, 3), seed=1)
    X = stream(1, "x").random((3, 5))
    np.testing.assert_array_equal(forward_batch(params, X), forward_batch(params, X))


# ---------------------------------------------------------------------------
# predict_batch
# ---------------------------------------------------------------------------


def _identity_logit_params(n: int, scale: float = 4.0) -> ModelParams:
    # Single linear layer with W = scale * I: probabilities ordered like inputs.
    shapes = shapes_for((n, n))
    return ModelParams(
        np.concatenate([(scale * np.eye(n)).ravel(), np.zeros(n)]), shapes
    )


def test_predict_takes_argmax():
    params = _identity_logit_params(3)
    X = np.array([[0.1, 0.8, 0.1], [0.2, 0.1, 0.9], [0.7, 0.2, 0.1]])
    np.testing.assert_array_equal(predict_batch(params, X), [1, 2, 0])


def test_predict_breaks_ties_to_lowest_index():
    params = _identity_logit_params(2)
    np.testing.assert_array_equal(predict_batch(params, np.array([[0.5, 0.5]])), [0])


def test_predict_agrees_with_max_scan_over_random_inputs():
    params = make_params((5, 9, 6), seed=4)
    X = stream(4, "scan").random((1000, 5))
    preds = predict_batch(params, X)
    for probs, pred in zip(forward_batch(params, X), preds):
        best, best_p = 0, probs[0]
        for m in range(1, 6):
            if probs[m] > best_p:
                best, best_p = m, probs[m]
        assert pred == best


def test_predict_invariant_under_shared_logit_shift():
    # Adding a constant to every output bias shifts all logits equally and
    # must not change the argmax.
    params = make_params((4, 6, 5), seed=9)
    shifted_values = params.values.copy()
    shifted_values[-5:] += 3.7
    shifted = ModelParams(shifted_values, params.shapes)
    X = stream(9, "shift").random((50, 4))
    np.testing.assert_array_equal(predict_batch(params, X), predict_batch(shifted, X))


# ---------------------------------------------------------------------------
# batch_loss on given confidences
# ---------------------------------------------------------------------------


def _emitting(confidence) -> ModelParams:
    """A one-input linear model whose output is ``confidence`` for any input."""
    confidence = np.asarray(confidence, dtype=np.float64)
    n = confidence.size
    logits = np.log(np.maximum(confidence, 1e-300))
    return ModelParams(np.concatenate([np.zeros(n), logits]), shapes_for((1, n)))


def _loss(label: int, confidence, negative: bool = False) -> float:
    """batch_loss of one row whose predicted distribution is ``confidence``."""
    return batch_loss(_emitting(confidence), np.zeros((1, 1)), [label], negative, 1.0)


def test_cross_entropy_one_hot_is_zero():
    assert _loss(0, [1.0, 0.0, 0.0]) == 0.0


def test_cross_entropy_uniform_ten_classes():
    assert _loss(3, np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-9)


def test_cross_entropy_analytic_value():
    assert _loss(1, [0.7, 0.2, 0.1]) == pytest.approx(1.609438, abs=1e-6)


def test_cross_entropy_nonnegative_and_zero_on_own_one_hot():
    rng = stream(11, "ce")
    for _ in range(100):
        probs = rng.dirichlet(np.ones(6))
        label = int(rng.integers(0, 6))
        assert _loss(label, probs) >= 0.0
        one_hot = np.zeros(6)
        one_hot[label] = 1.0
        assert _loss(label, one_hot) == 0.0


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        _loss(3, [0.5, 0.5])


def test_negative_cross_entropy_values():
    assert _loss(0, [0.0, 1.0], negative=True) == 0.0
    assert _loss(1, [0.5, 0.5], negative=True) == pytest.approx(math.log(2), abs=1e-9)
    assert _loss(0, [0.9, 0.1], negative=True) == pytest.approx(2.302585, abs=1e-6)


def test_negative_cross_entropy_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        _loss(-1, [0.5, 0.5], negative=True)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences_mixed_batch():
    params = make_params((2, 4, 3), seed=5)
    batch = random_batch(params, 8, seed=5, mixed=True)
    analytic = gradient(params, *batch)
    numeric = fd_batch_gradient(params, batch, h=1e-4)
    assert rel_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_gradient_finite_difference_property(seed):
    rng = stream(seed, "dims")
    dims = (int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(2, 5)))
    params = make_params(dims, seed=seed + 100)
    batch = random_batch(params, int(rng.integers(2, 9)), seed=seed + 200)
    assert rel_error(gradient(params, *batch), fd_batch_gradient(params, batch)) < 1e-4


def test_gradient_zero_weights_is_zero():
    params = make_params((3, 5, 4), seed=6)
    X = np.array([[0.1, 0.2, 0.3], [0.5, 0.1, 0.9]])
    grad = gradient(params, X, [1, 2], [False, True], 0.0)
    np.testing.assert_array_equal(grad, np.zeros(params.values.size))


def test_gradient_duplicate_equals_double_weight():
    params = make_params((3, 4, 3), seed=7)
    a = np.array([0.2, 0.9, 0.4])
    b = np.array([0.6, 0.1, 0.8])
    duplicated = gradient(params, np.stack([a, a, b]), [1, 1, 0], [False, False, True], 1.0)
    weighted = gradient(params, np.stack([a, b]), [1, 0], [False, True], [2.0, 1.0])
    np.testing.assert_allclose(duplicated, weighted, atol=1e-10)


def test_gradient_empty_batch_is_an_error():
    with pytest.raises(ValueError, match="empty batch"):
        gradient(make_params((2, 3, 2), seed=0), np.empty((0, 2)), [], False, 1.0)


def test_gradient_rejects_bad_labels_and_width():
    params = make_params((2, 3, 2), seed=0)
    with pytest.raises(ValueError, match="out of range"):
        gradient(params, np.zeros((2, 2)), [0, 2], True, 1.0)
    with pytest.raises(ValueError, match="expects 2.*got 3"):
        gradient(params, np.zeros((2, 3)), [0, 1], False, 1.0)


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------


def _opt(params, lr=0.1, momentum=0.0):
    return OptimizerState(params, learning_rate=lr, momentum=momentum)


def _step(params, grad, **kwargs):
    opt = _opt(params, **kwargs)
    sgd_step(opt, grad)
    return opt.result()


def test_sgd_step_zero_lr_keeps_params():
    params = make_params((2, 3, 2), seed=8)
    grad = stream(8, "g").random(params.values.size)
    stepped = _step(params, grad, lr=0.0, momentum=0.9)
    np.testing.assert_array_equal(stepped.values, params.values)


def test_sgd_step_plain_sgd_exact():
    params = make_params((2, 3, 2), seed=9)
    grad = stream(9, "g").random(params.values.size)
    stepped = _step(params, grad, lr=0.05, momentum=0.0)
    np.testing.assert_array_equal(stepped.values, params.values - 0.05 * grad)


def test_sgd_step_momentum_two_steps_displacement():
    # v1 = g, v2 = 0.9 g + g = 1.9 g, so two steps move by lr * g * (1 + 1.9).
    params = make_params((2, 3, 2), seed=10)
    grad = stream(10, "g").random(params.values.size)
    opt = _opt(params, lr=0.01, momentum=0.9)
    sgd_step(opt, grad)
    np.testing.assert_allclose(params.values - opt.params.values, 0.01 * grad, rtol=1e-12)
    sgd_step(opt, grad)
    np.testing.assert_allclose(
        params.values - opt.result().values, 0.01 * grad * (1 + 1.9), rtol=1e-12
    )


def test_sgd_step_does_not_mutate_inputs():
    # The optimizer steps a private copy: the starting model, the gradient
    # and a result already handed out never change, and the live view
    # cannot be written through.
    params = make_params((2, 3, 2), seed=11)
    before = params.values.copy()
    grad = np.ones(params.values.size)
    opt = _opt(params, lr=0.1, momentum=0.5)
    sgd_step(opt, grad)
    np.testing.assert_array_equal(params.values, before)
    np.testing.assert_array_equal(grad, np.ones(params.values.size))
    with pytest.raises(ValueError, match="read-only"):
        opt.params.values[0] = 1.0
    first = opt.result()
    frozen = first.values.copy()
    with pytest.raises(RuntimeError, match="result"):
        sgd_step(opt, grad)
    np.testing.assert_array_equal(first.values, frozen)
    with pytest.raises(ValueError, match="read-only"):
        first.values[0] = 1.0


def test_sgd_step_length_mismatch():
    params = make_params((2, 3, 2), seed=12)
    with pytest.raises(ValueError, match="does not match"):
        sgd_step(_opt(params), np.zeros(3))


def test_sgd_step_rejects_non_finite_result():
    params = make_params((2, 3, 2), seed=13)
    grad = np.full(params.values.size, np.inf)
    with pytest.raises(FloatingPointError):
        sgd_step(_opt(params), grad)


def test_optimizer_states_share_no_buffers():
    # Two optimizers started from one model step independently.
    params = make_params((2, 3, 2), seed=15)
    a, b = _opt(params, lr=0.1), _opt(params, lr=0.1)
    sgd_step(a, np.ones(params.values.size))
    np.testing.assert_array_equal(b.params.values, params.values)
    np.testing.assert_array_equal(b.velocity, np.zeros(params.values.size))


# ---------------------------------------------------------------------------
# ModelParams plumbing
# ---------------------------------------------------------------------------


def test_model_params_length_validation():
    with pytest.raises(ValueError, match="length"):
        ModelParams(np.zeros(5), shapes_for((2, 3)))


def test_init_params_glorot_bounds_and_zero_bias():
    params = init_params((30, 20, 10), stream(2, "init"))
    for (fan_in, fan_out), (w, b) in zip(params.shapes, unflatten(params)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(b, np.zeros(fan_out))


def test_batch_loss_matches_elementwise_losses():
    params = make_params((3, 5, 4), seed=14)
    batch = random_batch(params, 6, seed=14)
    X, labels, negatives, weights = batch
    total, wsum = 0.0, 0.0
    for probs, label, negative, weight in zip(forward_batch(params, X), labels, negatives, weights):
        total += weight * reference_loss(label, probs, negative)
        wsum += weight
    assert batch_loss(params, *batch) == pytest.approx(total / wsum, rel=1e-12)
