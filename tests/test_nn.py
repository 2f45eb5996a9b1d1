"""Model core: batch forward/predict, losses, analytic gradients, SGD."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedseal import (
    ModelParams,
    batch_loss,
    forward_batch,
    gradient,
    init_params,
    predict_batch,
    sgd_step,
    stream,
)
from fedseal.nn import SGDConfig, _features, _forward_cached, param_count, shapes_for, train

from conftest import (
    fd_batch_gradient,
    make_params,
    random_batch,
    reference_gradient,
    reference_init_params,
    reference_loss,
    rel_error,
)


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
    with pytest.raises(ValueError, match="expects 4.*got 3"):
        forward_batch(params, np.zeros((0, 3)))
    # A lone row is not a batch.
    with pytest.raises(ValueError, match=r"expects 4.*got \(4,\)"):
        forward_batch(params, np.zeros(4))


def test_forward_deterministic():
    params = make_params((5, 7, 3), seed=1)
    X = stream(1, "x").random((3, 5))
    np.testing.assert_array_equal(forward_batch(params, X), forward_batch(params, X))


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_forward_blocks_match_one_whole_batch_pass(n):
    params = make_params((5, 7, 3), seed=2)
    X = stream(2, "x").random((n, 5))
    probs = forward_batch(params, X)
    assert probs.shape == (n, 3)
    np.testing.assert_array_equal(probs, _forward_cached(params, X.astype(np.float32))[0])


def _forward_extra_peak(params: ModelParams, X: np.ndarray) -> int:
    """Peak bytes traced during forward_batch, beyond the output it returns."""
    tracemalloc.start()
    try:
        probs = forward_batch(params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - probs.nbytes


@pytest.mark.parametrize("width", [32, 784])
def test_forward_working_set_does_not_grow_with_rows(width):
    # The activations and float32 cast rows held at once are one block's, so
    # scoring 3000 float64 rows needs no more scratch memory than scoring
    # 256; a float32 copy of all 3000 rows would take 9.4 MB at width 784.
    params = make_params((width, 128, 64, 10), seed=0)
    X = stream(0, "x").random((3000, width))
    small, large = _forward_extra_peak(params, X[:256]), _forward_extra_peak(params, X)
    assert large <= 1.1 * small, (large, small)


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
    return batch_loss(_emitting(confidence), np.zeros((1, 1)), [label], negative)


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


def test_gradient_matches_finite_differences_for_each_loss_kind():
    params = make_params((2, 4, 3), seed=5, dtype=np.float64)
    for negative in (False, True):
        batch = random_batch(params, 8, seed=5, negative=negative)
        analytic = gradient(params, *batch)
        numeric = fd_batch_gradient(params, batch, h=1e-4)
        assert rel_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_gradient_finite_difference_property(seed):
    rng = stream(seed, "dims")
    dims = (int(rng.integers(2, 5)), int(rng.integers(3, 6)), int(rng.integers(2, 5)))
    params = make_params(dims, seed=seed + 100, dtype=np.float64)
    n = int(rng.integers(2, 9))
    for negative in (False, True):
        batch = random_batch(params, n, seed=seed + 200, negative=negative)
        assert rel_error(gradient(params, *batch), fd_batch_gradient(params, batch)) < 1e-4


@pytest.mark.parametrize("label, negative", [(1, False), (0, True)])
def test_gradient_of_a_clamped_row_is_zero(label, negative):
    # Under [1, 0, 0], p of class 1 and 1 - p of class 0 fall below
    # PROB_FLOOR, where the clamped loss is flat.
    params = _emitting([1.0, 0.0, 0.0])
    assert not gradient(params, np.ones((1, 1)), [label], negative).any()


def test_gradient_empty_batch_is_an_error():
    with pytest.raises(ValueError, match="empty batch"):
        gradient(make_params((2, 3, 2), seed=0), np.empty((0, 2)), [])


def test_gradient_rejects_bad_labels_and_width():
    params = make_params((2, 3, 2), seed=0)
    with pytest.raises(ValueError, match="out of range"):
        gradient(params, np.zeros((2, 2)), [0, 2], negative=True)
    with pytest.raises(ValueError, match="expects 2.*got 3"):
        gradient(params, np.zeros((2, 3)), [0, 1])
    with pytest.raises(ValueError, match="1 labels for 2 rows"):
        gradient(params, np.zeros((2, 2)), [0])


def test_gradient_and_loss_take_a_list_of_rows():
    params = make_params((3, 4, 2), seed=1)
    X, labels = stream(2, "rows").random((5, 3)), [0, 1, 1, 0, 1]
    np.testing.assert_array_equal(gradient(params, X.tolist(), labels),
                                  gradient(params, X, labels))
    assert batch_loss(params, X.tolist(), labels) == batch_loss(params, X, labels)


@settings(max_examples=200)
@given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=4), n=st.integers(1, 64),
       dtype=st.sampled_from([np.float32, np.float64]),
       row_dtype=st.sampled_from([np.float32, np.float64]),
       negative=st.booleans(), seed=st.integers(0, 2**16))
def test_gradient_matches_the_concatenating_reference_byte_for_byte(
    dims, n, dtype, row_dtype, negative, seed
):
    # Chains of 1 to 3 layers; random weights and biases, so that no bias
    # gradient is zero by construction.
    shapes = shapes_for(dims)
    rng = stream(seed, "packing")
    params = ModelParams(rng.normal(0.0, 1.0, param_count(shapes)).astype(dtype), shapes)
    X = rng.random((n, dims[0])).astype(row_dtype)
    labels = rng.integers(0, dims[-1], n)
    grad = gradient(params, X, labels, negative=negative)
    expected = reference_gradient(params, X, labels, negative=negative)
    assert grad.dtype == expected.dtype == dtype
    assert grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dims", [(784, 128, 64, 10), (32, 128, 64, 10)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("negative", [False, True])
def test_paper_shaped_gradient_matches_the_concatenating_reference(dims, dtype, negative):
    # The wide GEMMs of the paper's network, at the mini-batch size and at one row.
    params = make_params(dims, seed=5, dtype=dtype)
    rng = stream(5, "paper-batch")
    for n in (64, 1):
        X = rng.random((n, dims[0]), dtype=np.float32)
        labels = rng.integers(0, dims[-1], n)
        expected = reference_gradient(params, X, labels, negative=negative)
        assert gradient(params, X, labels, negative=negative).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------


def _buffers(params):
    """A writable copy of ``params``'s values, zero velocity and a scratch."""
    return params.values.copy(), np.zeros_like(params.values), np.empty_like(params.values)


def _step(params, grad, lr=0.1, momentum=0.0):
    """Values after one sgd_step from ``params`` at zero velocity."""
    values, velocity, scratch = _buffers(params)
    sgd_step(values, velocity, grad, SGDConfig(learning_rate=lr, momentum=momentum), scratch)
    return values


def test_sgd_step_zero_lr_keeps_params():
    params = make_params((2, 3, 2), seed=8, dtype=np.float64)
    grad = stream(8, "g").random(params.values.size)
    np.testing.assert_array_equal(_step(params, grad, lr=0.0, momentum=0.9), params.values)


def test_sgd_step_plain_sgd_exact():
    params = make_params((2, 3, 2), seed=9, dtype=np.float64)
    grad = stream(9, "g").random(params.values.size)
    np.testing.assert_array_equal(_step(params, grad, lr=0.05), params.values - 0.05 * grad)


def test_sgd_step_momentum_two_steps_displacement():
    # v1 = g, v2 = 0.9 g + g = 1.9 g, so two steps move by lr * g * (1 + 1.9).
    params = make_params((2, 3, 2), seed=10, dtype=np.float64)
    grad = stream(10, "g").random(params.values.size)
    cfg = SGDConfig(learning_rate=0.01, momentum=0.9)
    values, velocity, scratch = _buffers(params)
    sgd_step(values, velocity, grad, cfg, scratch)
    np.testing.assert_allclose(params.values - values, 0.01 * grad, rtol=1e-12)
    sgd_step(values, velocity, grad, cfg, scratch)
    np.testing.assert_allclose(params.values - values, 0.01 * grad * (1 + 1.9), rtol=1e-12)
    np.testing.assert_allclose(velocity, 1.9 * grad, rtol=1e-12)


def test_sgd_step_does_not_mutate_inputs():
    # Only values and velocity change; a write to the gradient would raise.
    params = make_params((2, 3, 2), seed=11, dtype=np.float64)
    grad = np.ones(params.values.size)
    grad.flags.writeable = False
    values, velocity, scratch = _buffers(params)
    sgd_step(values, velocity, grad, SGDConfig(learning_rate=0.1, momentum=0.5), scratch)
    np.testing.assert_array_equal(values, params.values - 0.1)


def test_sgd_step_allocates_no_parameter_sized_array():
    params = make_params((784, 128, 64, 10), seed=0)
    values, velocity, scratch = _buffers(params)
    grad, cfg = np.ones_like(values), SGDConfig(learning_rate=0.01, momentum=0.9)
    tracemalloc.start()
    try:
        sgd_step(values, velocity, grad, cfg, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The finite check holds one byte a parameter; a float32 copy would hold four.
    assert peak < 2 * values.size, (peak, values.size)


def test_sgd_step_length_mismatch():
    params = make_params((2, 3, 2), seed=12)
    with pytest.raises(ValueError, match="gradient length 3 does not match parameter length 17"):
        _step(params, np.zeros(3, dtype=params.values.dtype))


def test_sgd_step_rejects_a_gradient_of_another_dtype():
    # A cast would allocate a parameter-sized copy on every step.
    params = make_params((2, 3, 2), seed=12)
    with pytest.raises(ValueError, match="dtype float64 does not match parameter dtype float32"):
        _step(params, np.zeros(params.values.size))


def test_sgd_step_rejects_non_finite_result():
    params = make_params((2, 3, 2), seed=13, dtype=np.float64)
    with pytest.raises(FloatingPointError):
        _step(params, np.full(params.values.size, np.inf))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train(model, seed):
    X = stream(seed, "x").random((60, 4))
    terms = [(np.arange(40), np.arange(40) % 3, 1.0, False, None),
             (np.arange(40, 60), np.arange(20) % 3, 0.5, True, None)]
    cfg = SGDConfig(epochs=4, batch_size=4, learning_rate=0.05, momentum=0.9)
    return train(model, cfg, stream(seed, "train"), X, terms)


def test_train_leaves_its_model_and_returns_read_only_values():
    model = make_params((4, 6, 3), seed=15)
    before = model.values.copy()
    trained = _train(model, seed=15)
    np.testing.assert_array_equal(model.values, before)
    assert not np.array_equal(trained.values, before)
    with pytest.raises(ValueError, match="read-only"):
        trained.values[0] = 1.0


def test_train_in_threads_gives_the_sequential_bytes():
    # Each call owns its copy, velocity and scratch, so loops started from
    # one model and interleaved by threads share no buffers.  More workers
    # than cores and a short switch interval make the interleaving likely.
    model = make_params((4, 6, 3), seed=16)
    seeds = range(1, 5)
    sequential = [_train(model, seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            threaded = list(pool.map(lambda seed: _train(model, seed), seeds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(sequential, threaded):
        np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# float32 compute
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("negative", [False, True])
def test_float32_gradient_is_close_to_the_float64_gradient_of_the_same_weights(negative):
    # The paper's network and batch size.  Measured: at most 1.2e-6 over six
    # seeds; 1e-5 is about 80 float32 ulps of the largest entry.
    params = make_params((784, 128, 64, 10), seed=20)
    X, labels, _ = random_batch(params, 64, seed=20, negative=negative)
    reference = gradient(params.with_values(params.values.astype(np.float64)), X, labels, negative)
    assert rel_error(gradient(params, X, labels, negative).astype(np.float64), reference) < 1e-5


def test_float32_params_compute_and_return_float32():
    model = init_params((4, 6, 3), stream(21, "init"))
    assert model.values.dtype == np.float32
    X = stream(21, "x").random((60, 4))
    probs = forward_batch(model, X)
    assert probs.dtype == np.float32
    grad = gradient(model, X[:5], [0, 1, 2, 0, 1])
    assert grad.dtype == np.float32
    # Float32 bytes, not float64 results cast on the way out: the float64
    # rows are cast before they meet the weights.
    X32 = X.astype(np.float32)
    assert probs.tobytes() == _forward_cached(model, X32)[0].tobytes()
    assert grad.tobytes() == reference_gradient(model, X32[:5], [0, 1, 2, 0, 1]).tobytes()
    assert _train(model, seed=21).values.dtype == np.float32


def test_float32_rows_reach_the_network_uncopied_and_uint8_pixels_converted():
    model = init_params((4, 6, 3), stream(22, "init"))
    X = stream(22, "x").random((10, 4)).astype(np.float32)
    for rows in (slice(None), slice(2, 7)):
        assert np.shares_memory(_features(model, X, rows), X)
    pixels = stream(22, "pixels").integers(0, 256, size=(10, 4)).astype(np.uint8)
    rows = _features(model, pixels, slice(2, 7))
    assert rows.dtype == np.float32
    assert rows.tobytes() == (pixels[2:7] / 255.0).astype(np.float32).tobytes()


def test_model_params_keep_float32_and_float64_and_coerce_the_rest():
    shapes = shapes_for((2, 3))
    for dtype, kept in ((np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)):
        assert ModelParams(np.zeros(9, dtype=dtype), shapes).values.dtype == kept


# ---------------------------------------------------------------------------
# ModelParams plumbing
# ---------------------------------------------------------------------------


def test_model_params_length_validation():
    with pytest.raises(ValueError, match="length"):
        ModelParams(np.zeros(5), shapes_for((2, 3)))


def test_model_params_take_shapes_as_lists_and_hold_int_tuples():
    params = ModelParams(np.zeros(13), [[2, 3], [np.int64(3), 1]])
    assert params.shapes == ((2, 3), (3, 1))
    assert all(type(n) is int for shape in params.shapes for n in shape)


def test_shapes_for_needs_an_input_and_an_output_dim():
    with pytest.raises(ValueError, match=r"need at least input and output dims, got \(5,\)"):
        shapes_for((5,))


def test_model_params_hold_a_read_only_view_not_a_copy():
    values = np.zeros(param_count(shapes_for((2, 3))))
    params = ModelParams(values, shapes_for((2, 3)))
    assert np.shares_memory(params.values, values)
    assert np.shares_memory(params.with_values(values).values, values)
    assert not params.values.flags.writeable and values.flags.writeable


def test_init_params_glorot_bounds_and_zero_bias():
    params = init_params((30, 20, 10), stream(2, "init"))
    assert params.values.dtype == np.float32
    for (fan_in, fan_out), (w, b) in zip(params.shapes, params.layers):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(b, np.zeros(fan_out))


@pytest.mark.parametrize("dims", [(784, 128, 64, 10), (32, 128, 64, 10), (3, 2), (5, 1, 4)])
def test_init_params_matches_the_chunked_reference_byte_for_byte(dims):
    rng, reference_rng = stream(4, "init"), stream(4, "init")
    params, expected = init_params(dims, rng), reference_init_params(dims, reference_rng)
    assert params.values.dtype == expected.values.dtype == np.float32
    assert params.values.tobytes() == expected.values.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_model_params_layers_read_each_weight_and_bias_in_w1_b1_w2_b2_order():
    shapes = shapes_for((3, 4, 2, 5))
    sizes = [size for i, o in shapes for size in (i * o, o)]
    # Every entry of every W and b is a distinct value.
    chunks = np.split(np.arange(1.0, 1.0 + sum(sizes)), np.cumsum(sizes)[:-1])
    written = [(chunks[2 * k].reshape(shape), chunks[2 * k + 1]) for k, shape in enumerate(shapes)]
    params = ModelParams(np.concatenate(chunks), shapes)
    assert len(params.layers) == len(written)
    for (w, b), (w_in, b_in) in zip(params.layers, written):
        np.testing.assert_array_equal(w, w_in)
        np.testing.assert_array_equal(b, b_in)
        assert np.shares_memory(w, params.values) and np.shares_memory(b, params.values)
        assert not w.flags.writeable and not b.flags.writeable


def test_batch_loss_matches_elementwise_losses():
    params = make_params((3, 5, 4), seed=14, dtype=np.float64)
    for negative in (False, True):
        X, labels, _ = batch = random_batch(params, 6, seed=14, negative=negative)
        probs = forward_batch(params, X)
        losses = [reference_loss(y, row, negative) for row, y in zip(probs, labels)]
        assert batch_loss(params, *batch) == pytest.approx(np.mean(losses), rel=1e-12)
