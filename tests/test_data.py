"""Data layer: IDX/CSV ingestion, partitioning, augmentation, splits."""

import struct

import numpy as np
import pytest

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

from conftest import ForcedRng


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
    img = stream(7, "img").random(16)
    rng = ForcedRng(randoms=[0.9], integers=[(2, 2)])
    out = augment_weak(img, rng, image_shape=(4, 4))
    np.testing.assert_array_equal(out, img)


def test_augment_weak_flip():
    img = np.array([[0.1, 0.2], [0.3, 0.4]])
    rng = ForcedRng(randoms=[0.0], integers=[(2, 2)])  # flip, center crop
    out = augment_weak(img.ravel(), rng, image_shape=(2, 2)).reshape(2, 2)
    np.testing.assert_array_equal(out, [[0.2, 0.1], [0.4, 0.3]])


def test_augment_weak_bounds_and_length():
    rng = stream(8, "weak")
    img = rng.random(36)
    for _ in range(1000):
        out = augment_weak(img, rng, image_shape=(6, 6))
        assert out.shape == (36,)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_weak_vector_mode_bounds():
    rng = stream(9, "weakvec")
    x = rng.random(12)
    for _ in range(1000):
        out = augment_weak(x, rng, image_shape=None)
        assert out.shape == (12,)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_strong_double_flip_is_identity():
    img = stream(10, "img").random(25)
    rng = ForcedRng(integers=[(0, 0)])  # ops = (flip, flip)
    out = augment_strong(img, rng, image_shape=(5, 5))
    np.testing.assert_array_equal(out, img)


def test_augment_strong_cutout_masks_quarter_area():
    img = np.linspace(0.0, 0.9, 16)
    # ops = (cutout, cutout) at the same position: idempotent.
    rng = ForcedRng(integers=[(4, 4), 1, 1, 1, 1])
    out = augment_strong(img, rng, image_shape=(4, 4)).reshape(4, 4)
    grid = img.reshape(4, 4).copy()
    grid[1:3, 1:3] = 0.5
    np.testing.assert_array_equal(out, grid)


def test_augment_strong_bounds_image_mode():
    rng = stream(11, "strong")
    img = rng.random(49)
    for _ in range(1000):
        out = augment_strong(img, rng, image_shape=(7, 7))
        assert out.shape == (49,)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_strong_bounds_vector_mode():
    rng = stream(12, "strongvec")
    x = rng.random(20)
    for _ in range(1000):
        out = augment_strong(x, rng, image_shape=None)
        assert out.shape == (20,)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augmentation_streams_reproducible():
    img = stream(13, "img").random(64)
    a = [augment_strong(img, stream(13, "aug", i), image_shape=(8, 8)) for i in range(20)]
    b = [augment_strong(img, stream(13, "aug", i), image_shape=(8, 8)) for i in range(20)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


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

    all_ids = [
        int(i)
        for coll in (split.server_train, split.server_val, split.test, *split.client_train)
        for i in coll.ids
    ]
    assert len(all_ids) == len(set(all_ids))

    counts = np.bincount(split.server_train.y, minlength=5)
    np.testing.assert_array_equal(counts, np.full(5, 10))

    # Every carved row is a distinct pool row with its own label.
    X, y = pool
    rows_of = {x.tobytes(): i for i, x in enumerate(X)}
    used = set()
    for k, shard in enumerate(split.client_train):
        assert shard.y is None
        hidden = split.hidden_labels(k)
        assert hidden.shape == (len(shard),)
        for x, label in zip(shard.X, hidden):
            row = rows_of[x.tobytes()]
            assert y[row] == label and row not in used
            used.add(row)


def test_build_split_same_seed_identical():
    pool = balanced_pool(1200, 4, seed=15)
    kwargs = dict(
        n_clients=3, per_client=80, server_train_n=40, server_val_n=30,
        seed=8, test_n=50, partition_mode="dirichlet",
    )
    a = build_split(pool, **kwargs)
    b = build_split(pool, **kwargs)
    for shard_a, shard_b in zip(a.client_train, b.client_train):
        np.testing.assert_array_equal(shard_a.ids, shard_b.ids)
        np.testing.assert_array_equal(shard_a.X, shard_b.X)


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
