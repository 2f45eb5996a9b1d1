"""Data layer: IDX/CSV ingestion, partitioning, augmentation, splits."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedseal import (
    UNLABELED,
    DataConfig,
    augment_strong,
    augment_weak,
    build_split,
    ingest_csv,
    ingest_idx,
    load_split,
    partition,
    stream,
    synthetic_blobs,
    write_csv,
)

from fedseal.data import _apply_op, _rotate

from conftest import (
    ForcedRng,
    ref_contrast,
    ref_crop,
    ref_cutout,
    ref_flip,
    ref_noise,
    ref_rotate,
    ref_translate,
    ref_vector_cutout,
    reference_strong_images,
    reference_strong_vectors,
    reference_weak_images,
    reference_weak_vector,
)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels: np.ndarray, labels: list[int]):
    """Hand-assemble an IDX image/label pair from raw bytes."""
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(labels))
    return images_path, labels_path


def test_ingest_idx_exact_pixels(tmp_path):
    pixels = np.array(
        [[[0, 255], [128, 64]], [[1, 2], [3, 4]], [[10, 20], [30, 40]]],
        dtype=np.uint8,
    )
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [7, 0, 3])
    features, labels = ingest_idx(images_path, labels_path)
    assert labels.tolist() == [7, 0, 3]
    assert features.shape == (3, 4)
    for x, img in zip(features, pixels):
        np.testing.assert_array_equal(x, img.ravel() / 255.0)


def test_ingest_idx_gzip_transparent(tmp_path):
    import gzip

    pixels = np.array([[[5, 10], [15, 20]]], dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [4])
    for path in (images_path, labels_path):
        with open(path, "rb") as raw, gzip.open(f"{path}.gz", "wb") as gz:
            gz.write(raw.read())
    features, labels = ingest_idx(f"{images_path}.gz", f"{labels_path}.gz")
    assert labels.tolist() == [4]
    np.testing.assert_array_equal(features[0], pixels[0].ravel() / 255.0)


def test_ingest_idx_zero_count(tmp_path):
    pixels = np.zeros((0, 2, 2), dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [])
    features, labels = ingest_idx(images_path, labels_path)
    assert features.shape == (0, 4) and labels.shape == (0,)


def test_ingest_idx_count_mismatch(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [1, 2, 0])
    short_labels = tmp_path / "short-labels"
    with open(short_labels, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 2))
        f.write(bytes([1, 2]))
    with pytest.raises(ValueError, match="2 labels but .* 3 images"):
        ingest_idx(images_path, short_labels)


def test_ingest_idx_bad_magic_reports_offset(tmp_path):
    bad = tmp_path / "bad"
    with open(bad, "wb") as f:
        f.write(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2))
        f.write(bytes(4))
    _, labels_path = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    with pytest.raises(ValueError, match="byte offset 0"):
        ingest_idx(bad, labels_path)


def test_ingest_idx_truncated_reports_offset(tmp_path):
    truncated = tmp_path / "truncated"
    with open(truncated, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        f.write(bytes(5))  # needs 8 pixel bytes
    _, labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    with pytest.raises(ValueError, match="byte offset"):
        ingest_idx(truncated, labels_path)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_ingest_csv_labeled_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,f0,f1\n1,0.5,0.5\n")
    features, labels = ingest_csv(path)
    assert labels.tolist() == [1]
    np.testing.assert_array_equal(features, [[0.5, 0.5]])


def test_ingest_csv_unlabeled_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,f0,f1\n,0.1,0.2\n")
    features, labels = ingest_csv(path)
    assert labels.tolist() == [UNLABELED]
    np.testing.assert_array_equal(features, [[0.1, 0.2]])


def test_csv_round_trip_is_identity(tmp_path):
    rng = stream(21, "csv")
    features = rng.random((50, 7))
    labels = np.where(np.arange(50) % 3 > 0, rng.integers(0, 4, size=50), UNLABELED)
    path = tmp_path / "rt.csv"
    write_csv(features, labels, path)
    back_features, back_labels = ingest_csv(path)
    np.testing.assert_array_equal(back_labels, labels)
    np.testing.assert_array_equal(back_features, features)


def test_ingest_csv_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,f0\n0,0.5\n1,abc\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(path)


def test_ingest_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,f0,f1\n0,0.5,0.5\n1,0.2\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(path)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("1,nan,0.5", "non-finite"),
        ("2,inf,0.7", "non-finite"),
        ("1,0.5,7.0", r"outside \[0, 1\]"),
        ("1,-0.1,0.5", r"outside \[0, 1\]"),
        ("-2,0.5,0.5", "negative label"),
    ],
)
def test_ingest_csv_rejects_bad_values_with_line(tmp_path, row, problem):
    path = tmp_path / "d.csv"
    path.write_text(f"label,f0,f1\n0,0.5,0.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"d\.csv: line 3: .*{problem}"):
        ingest_csv(path)


def test_ingest_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1\n0.5,0.5\n")
    with pytest.raises(ValueError, match="line 1"):
        ingest_csv(path)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def balanced_pool(n: int, n_classes: int, seed: int = 0):
    return synthetic_blobs(n, n_classes, 8, stream(seed, "pool"))


def pool_labels(n: int, n_classes: int, seed: int = 0) -> np.ndarray:
    return balanced_pool(n, n_classes, seed)[1]


def test_partition_iid_exact_per_class_counts():
    # 10 clients x 1200 instances over 10 classes: 120 of every class each.
    labels = pool_labels(13000, 10)
    shards = partition(labels, n_clients=10, mode="iid", per_client=1200, rng_seed=5)
    assert len(shards) == 10
    for shard in shards:
        assert len(shard) == 1200
        counts = np.bincount(labels[shard], minlength=10)
        np.testing.assert_array_equal(counts, np.full(10, 120))


def test_partition_single_client():
    labels = pool_labels(100, 5)
    (shard,) = partition(labels, n_clients=1, mode="iid", per_client=50, rng_seed=1)
    assert len(shard) == 50


def test_partition_dirichlet_disjoint_and_exact_sizes():
    labels = pool_labels(900, 6, seed=3)
    for seed in (0, 1, 2, 3):
        shards = partition(
            labels, n_clients=4, mode="dirichlet", per_client=200, rng_seed=seed
        )
        ids = [int(row) for shard in shards for row in shard]
        assert len(ids) == len(set(ids)) == 4 * 200
        assert all(len(shard) == 200 for shard in shards)


def test_partition_insufficient_pool():
    labels = pool_labels(100, 5)
    with pytest.raises(ValueError, match="cannot supply"):
        partition(labels, n_clients=3, mode="iid", per_client=50, rng_seed=0)


def test_partition_iid_divisibility():
    labels = pool_labels(300, 4)
    with pytest.raises(ValueError, match="divisible"):
        partition(labels, n_clients=2, mode="iid", per_client=30, rng_seed=0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0])
def test_partition_rejects_a_bad_alpha_before_drawing(alpha):
    # NaN proportions once cast to huge negative counts, and the top-up loop
    # then never ended.
    with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
        partition(pool_labels(100, 5), 5, "dirichlet", 10, rng_seed=1, alpha=alpha)


def test_partition_same_seed_bit_identical():
    labels = pool_labels(600, 5, seed=9)
    a = partition(labels, 3, "dirichlet", 150, rng_seed=42)
    b = partition(labels, 3, "dirichlet", 150, rng_seed=42)
    assert [s.tolist() for s in a] == [s.tolist() for s in b]


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def test_augment_weak_identity_path():
    # No flip, center crop: the image comes back unchanged.
    img = stream(7, "img").random((1, 16))
    rng = ForcedRng(randoms=[0.9], integers=[(2, 2)])
    out = augment_weak(img, rng, image_shape=(4, 4))
    np.testing.assert_array_equal(out, img)


def test_augment_weak_flip():
    img = np.array([[0.1, 0.2], [0.3, 0.4]])
    rng = ForcedRng(randoms=[0.0], integers=[(2, 2)])  # flip, center crop
    out = augment_weak(img.reshape(1, 4), rng, image_shape=(2, 2)).reshape(2, 2)
    np.testing.assert_array_equal(out, [[0.2, 0.1], [0.4, 0.3]])


def test_augment_weak_bounds_and_length():
    rng = stream(8, "weak")
    img = rng.random(36)
    out = augment_weak(np.tile(img, (1000, 1)), rng, image_shape=(6, 6))
    assert out.shape == (1000, 36)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_weak_vector_mode_bounds():
    rng = stream(9, "weakvec")
    x = rng.random(12)
    out = augment_weak(np.tile(x, (1000, 1)), rng, image_shape=None)
    assert out.shape == (1000, 12)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_strong_double_flip_is_identity():
    img = stream(10, "img").random((1, 25))
    rng = ForcedRng(integers=[(0, 0)])  # ops = (flip, flip)
    out = augment_strong(img, rng, image_shape=(5, 5))
    np.testing.assert_array_equal(out, img)


def test_augment_strong_cutout_masks_quarter_area():
    img = np.linspace(0.0, 0.9, 16).reshape(1, 16)
    # ops = (cutout, cutout) at the same position: idempotent.
    rng = ForcedRng(integers=[(4, 4), (1, 1), (1, 1)])
    out = augment_strong(img, rng, image_shape=(4, 4)).reshape(4, 4)
    grid = img.reshape(4, 4).copy()
    grid[1:3, 1:3] = 0.5
    np.testing.assert_array_equal(out, grid)


def test_augment_strong_bounds_image_mode():
    rng = stream(11, "strong")
    img = rng.random(49)
    out = augment_strong(np.tile(img, (1000, 1)), rng, image_shape=(7, 7))
    assert out.shape == (1000, 49)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_strong_bounds_vector_mode():
    rng = stream(12, "strongvec")
    x = rng.random(20)
    out = augment_strong(np.tile(x, (1000, 1)), rng, image_shape=None)
    assert out.shape == (1000, 20)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_augmentation_streams_reproducible():
    imgs = stream(13, "img").random((20, 64))
    a = augment_strong(imgs, stream(13, "aug"), image_shape=(8, 8))
    b = augment_strong(imgs, stream(13, "aug"), image_shape=(8, 8))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("augment", [augment_weak, augment_strong])
@pytest.mark.parametrize("shape", [None, (4, 4)])
def test_augmenters_reject_a_row_that_is_not_a_batch(augment, shape):
    with pytest.raises(ValueError, match="batch"):
        augment(np.full(16, 0.5), stream(14, "aug"), image_shape=shape)
    with pytest.raises(ValueError, match="batch"):
        augment(np.full((3, 15), 0.5), stream(14, "aug"), image_shape=(4, 4))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    augment=st.sampled_from([augment_weak, augment_strong]),
    n=st.integers(0, 70),
    shape=st.none() | st.tuples(st.integers(1, 9), st.integers(1, 9)),
    vector_width=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(augment=augment_weak, n=0, shape=None, vector_width=7, seed=0)
@example(augment=augment_strong, n=0, shape=None, vector_width=7, seed=0)
@example(augment=augment_weak, n=0, shape=(3, 4), vector_width=1, seed=0)
@example(augment=augment_strong, n=0, shape=(3, 4), vector_width=1, seed=0)
def test_augmenters_keep_shape_range_and_input_of_any_batch(augment, n, shape, vector_width, seed):
    width = vector_width if shape is None else shape[0] * shape[1]
    X = stream(seed, "prop-rows").random((n, width))
    before = X.copy()
    out = augment(X, stream(seed, "prop-aug"), image_shape=shape)
    assert out.shape == X.shape
    assert ((out >= 0.0) & (out <= 1.0)).all()
    assert X.tobytes() == before.tobytes()
    assert augment(X, stream(seed, "prop-aug"), image_shape=shape).tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(28, 28), (5, 7), (3, 3), (1, 5), (2, 2), (1, 1)])
def test_batched_ops_match_per_row_references(shape):
    # Every op except rotation, fed the same parameters as its per-row
    # reference, gives the same bytes.
    h, w = shape
    k = 40
    rng = stream(15, "ops", h, w)
    imgs = rng.uniform(-0.3, 1.3, size=(k, h, w))
    crop = rng.integers(0, 5, size=(k, 2))
    shift = rng.integers(-3, 4, size=(k, 2))
    corner = rng.integers(0, [h - max(1, h // 2) + 1, w - max(1, w // 2) + 1], size=(k, 2))
    scale = 1.0 + rng.uniform(-0.4, 0.4, size=k)
    noise = rng.normal(0.0, 0.1, size=(k, h, w))
    cases = [
        ("flip", None, [ref_flip(img) for img in imgs]),
        ("crop", crop - 2, [ref_crop(img, *p) for img, p in zip(imgs, crop)]),
        ("translate", -shift, [ref_translate(img, *p) for img, p in zip(imgs, shift)]),
        ("cutout", corner, [ref_cutout(img, *p) for img, p in zip(imgs, corner)]),
        ("contrast", scale, [ref_contrast(img, c) for img, c in zip(imgs, scale)]),
        ("noise", noise, [ref_noise(img, e) for img, e in zip(imgs, noise)]),
    ]
    for op, params, per_row in cases:
        batched = _apply_op(op, imgs, params)
        assert batched.tobytes() == np.array(per_row).tobytes()


def test_batched_vector_cutout_matches_per_row_reference():
    rng = stream(16, "vcut")
    for width in (1, 3, 4, 17, 32):
        x = rng.random((30, 1, width))
        start = rng.integers(0, width - max(1, width // 4) + 1, size=30)
        corner = np.stack([np.zeros(30, dtype=np.int64), start], axis=1)
        batched = _apply_op("cutout", x, corner, image=False)
        per_row = [ref_vector_cutout(row[0], s) for row, s in zip(x, start)]
        np.testing.assert_array_equal(batched[:, 0], per_row)


@pytest.mark.parametrize("shape", [(28, 28), (5, 7), (3, 3)])
def test_rotation_matches_ndimage_rotate(shape):
    rng = stream(17, "rotate", *shape)
    angles = np.concatenate([[0.0, 15.0, -15.0], rng.uniform(-15.0, 15.0, size=47)])
    imgs = rng.uniform(-0.3, 1.3, size=(angles.size, *shape))
    rotated = _rotate(imgs, angles)
    for img, angle, out in zip(imgs, angles, rotated):
        np.testing.assert_allclose(out, ref_rotate(img, angle), rtol=0, atol=1e-12)
    # A zero angle moves nothing.
    np.testing.assert_array_equal(rotated[0], imgs[0])


@pytest.mark.parametrize("batched, per_row", [(augment_weak, reference_weak_vector)])
def test_vector_augmentation_repeats_per_row_calls_byte_for_byte(batched, per_row):
    # Weak vector noise is one (n, width) block, so a batch call returns the
    # bytes, and leaves the generator state, of one call per row.
    for width in (1, 3, 16, 32):
        for seed in range(25):
            X = stream(seed, "vec-rows", width).random((37, width))
            rng_batch, rng_rows = stream(seed, "vec-aug"), stream(seed, "vec-aug")
            out = batched(X, rng_batch)
            expected = np.stack([per_row(x, rng_rows) for x in X])
            assert out.tobytes() == expected.tobytes()
            assert rng_batch.bit_generator.state == rng_rows.bit_generator.state


def test_vector_strong_augmentation_follows_the_batch_draw_order():
    for width in (1, 3, 16, 32):
        for seed in range(25):
            X = stream(seed, "vec-rows", width).random((37, width))
            rng_batch, rng_rows = stream(seed, "vec-strong"), stream(seed, "vec-strong")
            out = augment_strong(X, rng_batch)
            assert out.tobytes() == reference_strong_vectors(X, rng_rows).tobytes()
            assert rng_batch.bit_generator.state == rng_rows.bit_generator.state


@pytest.mark.parametrize("shape", [(8, 8), (5, 7), (2, 2)])
def test_image_augmentation_follows_the_batch_draw_order(shape):
    h, w = shape
    for seed in range(10):
        X = stream(seed, "img-rows", h, w).random((48, h * w))
        rng_batch, rng_rows = stream(seed, "img-weak"), stream(seed, "img-weak")
        out = augment_weak(X, rng_batch, image_shape=shape)
        assert out.tobytes() == reference_weak_images(X, rng_rows, shape).tobytes()
        assert rng_batch.bit_generator.state == rng_rows.bit_generator.state

        rng_batch, rng_rows = stream(seed, "img-strong"), stream(seed, "img-strong")
        out = augment_strong(X, rng_batch, image_shape=shape)
        # Rotation is the only op not bitwise equal to its reference.
        np.testing.assert_allclose(
            out, reference_strong_images(X, rng_rows, shape), rtol=0, atol=1e-12
        )
        assert rng_batch.bit_generator.state == rng_rows.bit_generator.state


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 5)])
def test_strong_augmentation_of_images_smaller_than_a_shift(shape):
    # Translating by up to 3 px used to raise "could not broadcast" on images
    # smaller than the shift; the padded gather fills the rest with 0.
    X = stream(18, "tiny", *shape).random((8, shape[0] * shape[1]))
    for seed in range(300):
        out = augment_strong(X, stream(seed, "tiny-aug"), image_shape=shape)
        assert out.shape == X.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# Split assembly
# ---------------------------------------------------------------------------


def test_build_split_disjoint_and_hidden():
    pool = balanced_pool(1500, 5, seed=14)
    split = build_split(
        pool, n_clients=4, per_client=100, server_train_n=50, server_val_n=40,
        seed=3, test_n=60,
    )
    assert len(split.server_train) == 50
    assert len(split.server_val) == 40
    assert len(split.test) == 60
    assert [len(s) for s in split.client_train] == [100] * 4

    counts = np.bincount(split.server_train.y, minlength=5)
    np.testing.assert_array_equal(counts, np.full(5, 10))

    # Every carved row of all four collections is a distinct pool row with
    # its own label.
    X, y = pool
    assert len({x.tobytes() for x in X}) == len(X)
    rows_of = {x.tobytes(): i for i, x in enumerate(X)}
    carved = [(coll.X, coll.y) for coll in (split.server_train, split.server_val, split.test)]
    for k, shard in enumerate(split.client_train):
        assert shard.y is None
        hidden = split.hidden_labels(k)
        assert hidden.shape == (len(shard),)
        carved.append((shard.X, hidden))
    used = set()
    for features, labels in carved:
        for x, label in zip(features, labels):
            row = rows_of[x.tobytes()]
            assert y[row] == label and row not in used
            used.add(row)
    assert len(used) == 50 + 40 + 60 + 4 * 100


def test_build_split_same_seed_identical():
    pool = balanced_pool(1200, 4, seed=15)
    kwargs = dict(
        n_clients=3, per_client=80, server_train_n=40, server_val_n=30,
        seed=8, test_n=50, partition_mode="dirichlet",
    )
    a = build_split(pool, **kwargs)
    b = build_split(pool, **kwargs)
    for shard_a, shard_b in zip(a.client_train, b.client_train):
        np.testing.assert_array_equal(shard_a.X, shard_b.X)
    for k in range(3):
        np.testing.assert_array_equal(a.hidden_labels(k), b.hidden_labels(k))


def test_build_split_divisibility_error():
    pool = balanced_pool(300, 4, seed=16)
    with pytest.raises(ValueError, match="divisible"):
        build_split(pool, 2, 20, server_train_n=30, server_val_n=10, seed=0, test_n=10)


def test_synthetic_blobs_balanced_and_bounded():
    features, labels = synthetic_blobs(120, 6, 10, stream(17, "blobs"))
    assert features.shape == (120, 10)
    counts = np.bincount(labels, minlength=6)
    np.testing.assert_array_equal(counts, np.full(6, 20))
    assert features.min() >= 0.0 and features.max() <= 1.0


def test_synthetic_blobs_match_per_row_draws():
    # Chunked generation must reproduce one draw per row, in row order.
    rng = stream(18, "blobs")
    features, labels = synthetic_blobs(600, 4, 5, rng, spread=0.3)
    ref = stream(18, "blobs")
    centers = ref.uniform(0.2, 0.8, size=(4, 5))
    for i in range(600):
        expected = np.clip(centers[i % 4] + ref.normal(0.0, 0.3, size=5), 0.0, 1.0)
        np.testing.assert_array_equal(features[i], expected)
        assert labels[i] == i % 4
    assert rng.bit_generator.state == ref.bit_generator.state


def test_load_split_rejects_image_shape_that_does_not_fit_the_file(tmp_path):
    features, labels = synthetic_blobs(400, 4, 16, stream(19, "csv-img"))
    write_csv(features, labels, tmp_path / "train.csv")
    cfg = DataConfig(
        kind="csv", train_csv=str(tmp_path / "train.csv"), image_height=4, image_width=5,
        per_client=40, server_train_n=20, server_val_n=20, test_n=40,
    )
    with pytest.raises(ValueError, match="image_height x image_width = 4 x 5 .* 16 features"):
        load_split(cfg, n_clients=2, seed=1)


def test_load_split_csv_subsamples_the_test_file(tmp_path):
    features, labels = synthetic_blobs(400, 4, 6, stream(20, "csv-train"))
    write_csv(features, labels, tmp_path / "train.csv")
    test_X, test_y = synthetic_blobs(90, 4, 6, stream(20, "csv-test"))
    write_csv(test_X, test_y, tmp_path / "test.csv")
    cfg = DataConfig(
        kind="csv", train_csv=str(tmp_path / "train.csv"), test_csv=str(tmp_path / "test.csv"),
        per_client=40, server_train_n=20, server_val_n=20, test_n=25,
    )
    split = load_split(cfg, n_clients=2, seed=3)
    rows_of = {x.tobytes(): i for i, x in enumerate(test_X)}
    rows = [rows_of[x.tobytes()] for x in split.test.X]
    assert len(set(rows)) == 25
    np.testing.assert_array_equal(split.test.y, test_y[rows])
    again = load_split(cfg, n_clients=2, seed=3)
    np.testing.assert_array_equal(again.test.X, split.test.X)

    labels = labels.copy()
    labels[7] = UNLABELED
    write_csv(features, labels, tmp_path / "train.csv")
    with pytest.raises(ValueError, match="csv training pool must be fully labeled"):
        load_split(cfg, n_clients=2, seed=3)


def test_load_split_synthetic_covers_iid_partition():
    cfg = DataConfig(
        kind="synthetic", n_classes=5, n_features=6, per_client=50,
        server_train_n=25, server_val_n=20, test_n=30,
    )
    split = load_split(cfg, n_clients=4, seed=2)
    assert split.n_classes == 5
    assert [len(s) for s in split.client_train] == [50] * 4
    for shard in split.client_train:
        assert not shard.X.flags.writeable
