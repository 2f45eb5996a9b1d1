"""Data layer: IDX/CSV ingestion, partitioning, augmentation, splits."""

import gzip
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedseal import (
    Collection,
    DataConfig,
    augment_strong,
    augment_weak,
    forward_batch,
    gradient,
    ingest_csv,
    ingest_idx,
    load_split,
    partition,
    stream,
    synthetic_blobs,
)

from fedseal import data
from fedseal.data import (
    _blob_rows,
    _carve,
    _contrast,
    _crop,
    _cutout,
    _flip,
    _float_rows,
    _noise,
    _rotate,
    _stack,
    _translate,
)

from conftest import (
    ForcedRng,
    make_params,
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
    write_csv,
    write_idx,
)


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels: np.ndarray, labels: list[int]):
    """An IDX image file of (n, rows, cols) ``pixels`` and its label file."""
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    write_idx(images_path, pixels)
    write_idx(labels_path, labels)
    return images_path, labels_path


def test_ingest_idx_exact_pixels(tmp_path):
    pixels = np.array(
        [[[0, 255], [128, 64]], [[1, 2], [3, 4]], [[10, 20], [30, 40]]],
        dtype=np.uint8,
    )
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [7, 0, 3])
    features, labels = ingest_idx(images_path, labels_path)
    assert labels.tolist() == [7, 0, 3]
    assert features.shape == (3, 4) and features.dtype == np.uint8
    np.testing.assert_array_equal(features, pixels.reshape(3, 4))


def test_float_rows_gives_every_pixel_over_255_rounded_once_to_float32():
    # float32 division by 255 is correctly rounded, and for each of the 256
    # pixel values it equals rounding the float64 quotient to float32.
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    rows = _float_rows(pixels)
    assert rows.dtype == np.float32 and not np.shares_memory(rows, pixels)
    np.testing.assert_array_equal(rows.ravel(), (np.arange(256) / 255.0).astype(np.float32))


def gzip_file(path) -> str:
    """Write ``path`` + ".gz", the gzipped bytes of ``path``, and return its name."""
    with open(path, "rb") as raw, gzip.open(f"{path}.gz", "wb") as gz:
        gz.write(raw.read())
    return f"{path}.gz"


def test_ingest_idx_gzip_transparent(tmp_path):
    pixels = np.array([[[5, 10], [15, 20]]], dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [4])
    features, labels = ingest_idx(gzip_file(images_path), gzip_file(labels_path))
    assert labels.tolist() == [4]
    np.testing.assert_array_equal(features[0], pixels[0].ravel())


def test_ingest_idx_zero_count(tmp_path):
    pixels = np.zeros((0, 2, 2), dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [])
    features, labels = ingest_idx(images_path, labels_path)
    assert features.shape == (0, 4) and labels.shape == (0,)


def test_ingest_idx_count_mismatch(tmp_path):
    pixels = np.zeros((3, 2, 2), dtype=np.uint8)
    images_path, labels_path = write_idx_pair(tmp_path, pixels, [1, 2, 0])
    short_labels = tmp_path / "short-labels"
    write_idx(short_labels, [1, 2])
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
    # A labels file given as the images file: 8 labels fill a 16-byte header.
    _, labels_path = write_idx_pair(tmp_path, np.zeros((8, 1, 1), dtype=np.uint8), [0] * 8)
    with pytest.raises(ValueError, match=f"{re.escape(str(labels_path))}: bad image magic "
                                         "0x00000801 at byte offset 0"):
        ingest_idx(labels_path, labels_path)


def test_ingest_idx_truncated_reports_offset(tmp_path):
    truncated = tmp_path / "truncated"
    with open(truncated, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        f.write(bytes(5))  # needs 8 pixel bytes
    _, labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    with pytest.raises(ValueError, match="byte offset"):
        ingest_idx(truncated, labels_path)
    # 2**22 * 2**22 * 2**20 is 2**64, 0 in int64 arithmetic, which would let
    # a bare 16-byte header pass as a file of the right length.
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 2**22, 2**22, 2**20))
    with pytest.raises(ValueError, match=f"expected {2**64 + 16} bytes, got 16 "
                                         r"\(mismatch from byte offset 16\)"):
        ingest_idx(truncated, labels_path)


@pytest.mark.parametrize("damage, message", [
    (lambda gz: gz[:-4], "Compressed file ended"),
    (lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:], "CRC check failed"),
    (lambda gz: gzip.decompress(gz), "Not a gzipped file"),
], ids=["truncated", "crc", "not-gzipped"])
def test_ingest_idx_names_a_bad_gz_file(tmp_path, damage, message):
    images_path, labels_path = write_idx_pair(tmp_path, np.zeros((50, 4, 4), np.uint8), [0] * 50)
    gz_path = tmp_path / "images-idx3-ubyte.gz"
    gz_path.write_bytes(damage(gzip.compress(images_path.read_bytes())))
    with pytest.raises(ValueError, match=f"^{re.escape(str(gz_path))}: {message}"):
        ingest_idx(gz_path, labels_path)


@pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
def test_ingest_idx_counts_the_bytes_past_the_declared_end(tmp_path, gz):
    # 2.5 MiB past the 8 declared pixel bytes: more than one bounded read.
    images_path, labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                                              [0, 1])
    with open(images_path, "ab") as f:
        f.write(bytes(5 << 19))
    if gz:
        images_path = gzip_file(images_path)
    with pytest.raises(ValueError, match=f"expected 24 bytes, got {24 + (5 << 19)} "
                                         r"\(mismatch from byte offset 24\)"):
        ingest_idx(images_path, labels_path)


def test_ingest_idx_rejects_a_header_shorter_than_16_bytes(tmp_path):
    short = tmp_path / "short"
    short.write_bytes(struct.pack(">III", 0x00000803, 1, 2))
    _, labels_path = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    with pytest.raises(ValueError, match=f"{re.escape(str(short))}: truncated header at byte "
                                         "offset 12"):
        ingest_idx(short, labels_path)
    # A labels file shorter than its own 8-byte header.
    images_path, _ = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    short.write_bytes(struct.pack(">IH", 0x00000801, 1))
    with pytest.raises(ValueError, match=f"{re.escape(str(short))}: truncated header at byte "
                                         "offset 4"):
        ingest_idx(images_path, short)


def test_ingest_idx_rejects_a_bad_label_magic(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    labels_path.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes([0]))
    with pytest.raises(ValueError, match="bad label magic 0x00000803 at byte offset 0"):
        ingest_idx(images_path, labels_path)


def test_ingest_idx_rejects_a_label_file_of_the_wrong_length(tmp_path):
    # The header says 3 labels, as many as there are images, but 2 follow.
    images_path, labels_path = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                                              [0, 1, 2])
    labels_path.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1]))
    with pytest.raises(ValueError, match="expected 11 bytes, got 10"):
        ingest_idx(images_path, labels_path)


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
    path.write_text("label,f0,f1\n0,0.5,0.5\n,0.1,0.2\n")
    with pytest.raises(ValueError, match=r"d\.csv: line 3: empty label"):
        ingest_csv(path)


def test_csv_round_trip_is_identity(tmp_path):
    rng = stream(21, "csv")
    features = rng.random((50, 7))
    labels = rng.integers(0, 4, size=50)
    path = tmp_path / "rt.csv"
    write_csv(features, labels, path)
    back_features, back_labels = ingest_csv(path)
    np.testing.assert_array_equal(back_labels, labels)
    # Features are stored as float32, which a second round trip keeps exactly.
    assert back_features.dtype == np.float32
    np.testing.assert_array_equal(back_features, features.astype(np.float32))
    write_csv(back_features, back_labels, path)
    np.testing.assert_array_equal(ingest_csv(path)[0], back_features)


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
        ("1.5,0.5,0.5", "non-integer label"),
        ("x,0.5,0.5", "non-integer label"),
        ("99999999999999999999,0.5,0.5", "out of range"),
    ],
)
def test_ingest_csv_rejects_bad_values_with_line(tmp_path, row, problem):
    path = tmp_path / "d.csv"
    path.write_text(f"label,f0,f1\n0,0.5,0.5\n{row}\n")
    with pytest.raises(ValueError, match=rf"d\.csv: line 3: .*{problem}"):
        ingest_csv(path)


def test_ingest_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: empty file, expected a header row"):
        ingest_csv(path)


def test_ingest_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1\n0.5,0.5\n")
    with pytest.raises(ValueError, match="line 1"):
        ingest_csv(path)
    # No feature column: a label-only file once trained a 0-input network.
    path.write_text("label\n" + "".join(f"{i % 3}\n" for i in range(400)))
    with pytest.raises(ValueError, match="d.csv: line 1: expected header 'label,f0,f1,...'"):
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


def test_partition_rejects_an_unlabeled_row():
    with pytest.raises(ValueError, match="partition pool must be fully labeled"):
        partition(np.array([0, 1, -1, 1]), n_clients=1, mode="iid", per_client=2, rng_seed=0)


def test_partition_rejects_zero_clients():
    with pytest.raises(ValueError, match="n_clients must be >= 1, got 0"):
        partition(pool_labels(100, 5), n_clients=0, mode="iid", per_client=10, rng_seed=0)


def test_partition_iid_rejects_a_class_short_of_its_rows():
    # 2 clients x 2 rows of each class need 4 of class 1, which has 3; the
    # pool as a whole is large enough.
    labels = np.array([0] * 10 + [1] * 3)
    with pytest.raises(ValueError, match="class 1 has 3 instances, iid partition needs 4"):
        partition(labels, n_clients=2, mode="iid", per_client=4, rng_seed=0)


def test_partition_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown partition mode 'zipf'"):
        partition(pool_labels(100, 5), n_clients=2, mode="zipf", per_client=10, rng_seed=0)


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


def test_partition_takes_labels_as_a_list():
    labels = pool_labels(600, 5, seed=9)
    as_list = partition(labels.tolist(), 3, "iid", 150, rng_seed=42)
    for shard, expected in zip(as_list, partition(labels, 3, "iid", 150, rng_seed=42)):
        np.testing.assert_array_equal(shard, expected)


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


@pytest.mark.parametrize("augment", [augment_weak, augment_strong])
@pytest.mark.parametrize("shape", [None, (4, 4)])
def test_augmenters_take_a_batch_as_a_list_of_rows(augment, shape):
    X = stream(14, "img").random((6, 16))
    np.testing.assert_array_equal(augment(X.tolist(), stream(14, "aug"), shape),
                                  augment(X, stream(14, "aug"), shape))


@pytest.mark.parametrize("augment", [augment_weak, augment_strong])
@pytest.mark.parametrize("shape", [None, (4, 4)])
@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_augmenters_never_write_their_batch(augment, shape, dtype):
    # Pixels augment as the float32 rows they stand for.
    X = (stream(15, "img").random((40, 16)) * 255).astype(dtype)
    given = X.copy()
    out = augment(X, stream(15, "aug"), shape)
    np.testing.assert_array_equal(X, given)
    if dtype == np.uint8:
        rows = _float_rows(X)
        assert out.tobytes() == augment(rows, stream(15, "aug"), shape).tobytes()


def test_stack_copies_uint8_pixels_once():
    # _float_rows already returns new float32 rows; copying them again would
    # double the peak.
    X = stream(16, "img").integers(0, 256, size=(64, 784)).astype(np.uint8)
    tracemalloc.start()
    try:
        imgs = _stack(X, (28, 28))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert imgs.dtype == np.float32 and not np.shares_memory(imgs, X)
    assert peak < 1.5 * imgs.nbytes, peak / imgs.nbytes


@pytest.mark.parametrize("augment", [augment_weak, augment_strong])
@pytest.mark.parametrize("shape", [None, (4, 4)])
def test_augmenters_reject_a_row_that_is_not_a_batch(augment, shape):
    with pytest.raises(ValueError, match="batch"):
        augment(np.full(16, 0.5), stream(14, "aug"), image_shape=shape)
    with pytest.raises(ValueError, match="batch"):
        augment(np.full((3, 15), 0.5), stream(14, "aug"), image_shape=(4, 4))


@settings(max_examples=120)
@given(
    augment=st.sampled_from([augment_weak, augment_strong]),
    n=st.integers(0, 70),
    shape=st.none() | st.tuples(st.integers(1, 9), st.integers(1, 9)),
    vector_width=st.integers(1, 40),
    dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(augment=augment_weak, n=0, shape=None, vector_width=7, dtype=np.float32, seed=0)
@example(augment=augment_strong, n=0, shape=None, vector_width=7, dtype=np.float64, seed=0)
@example(augment=augment_weak, n=0, shape=(3, 4), vector_width=1, dtype=np.uint8, seed=0)
@example(augment=augment_strong, n=0, shape=(3, 4), vector_width=1, dtype=np.uint8, seed=0)
def test_augmenters_keep_shape_range_and_input_of_any_batch(augment, n, shape, vector_width,
                                                            dtype, seed):
    # One dtype rule: a batch augments in its float dtype, float32 for pixels.
    width = vector_width if shape is None else shape[0] * shape[1]
    X = stream(seed, "prop-rows").random((n, width))
    X = np.rint(255 * X).astype(dtype) if dtype == np.uint8 else X.astype(dtype)
    before = X.copy()
    out = augment(X, stream(seed, "prop-aug"), image_shape=shape)
    assert out.shape == X.shape
    assert out.dtype == np.result_type(_float_rows(X).dtype, np.float32)
    assert ((out >= 0.0) & (out <= 1.0)).all()
    assert X.tobytes() == before.tobytes()
    assert augment(X, stream(seed, "prop-aug"), image_shape=shape).tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(28, 28), (5, 7), (3, 3), (1, 5), (2, 2), (1, 1)])
def test_batched_ops_match_per_row_references(shape):
    # Every op except rotation gives the bytes of its per-row reference fed
    # the parameters drawn from a twin generator, and leaves its generator
    # in the twin's state.
    h, w = shape
    k = 40
    imgs = stream(15, "ops", h, w).uniform(-0.3, 1.3, size=(k, h, w))
    corners = [h - max(1, h // 2) + 1, w - max(1, w // 2) + 1]
    cases = [
        (_flip, lambda rng: [ref_flip(img) for img in imgs]),
        (_crop, lambda rng: [ref_crop(img, *p)
                             for img, p in zip(imgs, rng.integers(0, 5, size=(k, 2)))]),
        (_translate, lambda rng: [ref_translate(img, *p)
                                  for img, p in zip(imgs, rng.integers(-3, 4, size=(k, 2)))]),
        (_cutout, lambda rng: [ref_cutout(img, *p)
                               for img, p in zip(imgs, rng.integers(0, corners, size=(k, 2)))]),
        (_contrast, lambda rng: [ref_contrast(img, c)
                                 for img, c in zip(imgs, 1.0 + rng.uniform(-0.4, 0.4, size=k))]),
        (_noise, lambda rng: [ref_noise(img, e)
                              for img, e in zip(imgs, rng.normal(0.0, 0.1, size=(k, h, w)))]),
    ]
    for op, per_row in cases:
        rng_op, rng_ref = stream(15, "op-draws", h, w), stream(15, "op-draws", h, w)
        assert op(imgs, rng_op).tobytes() == np.array(per_row(rng_ref)).tobytes()
        assert rng_op.bit_generator.state == rng_ref.bit_generator.state


def test_batched_vector_cutout_matches_per_row_reference():
    for width in (1, 3, 4, 17, 32):
        x = stream(16, "vcut", width).random((30, 1, width))
        rng_op, rng_ref = stream(16, "vcut-draws", width), stream(16, "vcut-draws", width)
        batched = _cutout(x, rng_op, image=False)
        corner = rng_ref.integers(0, [1, width - max(1, width // 4) + 1], size=(30, 2))
        assert (corner[:, 0] == 0).all()
        per_row = [ref_vector_cutout(row[0], s) for row, s in zip(x, corner[:, 1])]
        assert batched[:, 0].tobytes() == np.array(per_row).tobytes()
        assert rng_op.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("shape", [(28, 28), (5, 7), (3, 3)])
def test_rotation_matches_ndimage_rotate(shape):
    rng = stream(17, "rotate", *shape)
    angles = np.concatenate([[0.0, 15.0, -15.0], rng.uniform(-15.0, 15.0, size=47)])
    imgs = rng.uniform(-0.3, 1.3, size=(angles.size, *shape))
    rotated = _rotate(imgs, ForcedRng(uniforms=[angles]))
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
    for width in (1, 3, 4, 16, 17, 32):
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


@pytest.mark.parametrize("shape", [(28, 28), (5, 7), (8, 8), (2, 2), (1, 5), (1, 1)])
def test_weak_image_augmentation_of_float32_rows_stays_float32_with_the_float64_values(shape):
    # Flip and crop only move pixels and clip is exact, so a float32 batch
    # comes back float32 with the values, and the generator state, of the
    # same batch augmented as float64.  Rows outside [0, 1] exercise clip.
    h, w = shape
    for seed in range(100):
        X = stream(seed, "img32-rows", h, w).uniform(-0.3, 1.3, (32, h * w)).astype(np.float32)
        rng32, rng64 = stream(seed, "img32-weak"), stream(seed, "img32-weak")
        out = augment_weak(X, rng32, image_shape=shape)
        expected = augment_weak(X.astype(np.float64), rng64, image_shape=shape)
        assert out.dtype == np.float32 and expected.dtype == np.float64
        assert out.astype(np.float64).tobytes() == expected.tobytes()
        assert rng32.bit_generator.state == rng64.bit_generator.state


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


def csv_split(tmp_path, pool, n_clients: int, seed: int, **sizes):
    write_csv(*pool, tmp_path / "train.csv")
    cfg = DataConfig(kind="csv", train_csv=str(tmp_path / "train.csv"), **sizes)
    return load_split(cfg, n_clients, seed)


def test_load_split_disjoint_and_hidden(tmp_path):
    pool = balanced_pool(1500, 5, seed=14)
    split = csv_split(tmp_path, pool, n_clients=4, seed=3, per_client=100,
                      server_train_n=50, server_val_n=40, test_n=60)
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
        assert type(shard) is np.ndarray  # features only: a shard carries no labels
        hidden = split.hidden_labels(k)
        assert hidden.shape == (len(shard),)
        carved.append((shard, hidden))
    used = set()
    for features, labels in carved:
        for x, label in zip(features, labels):
            row = rows_of[x.tobytes()]
            assert y[row] == label and row not in used
            used.add(row)
    assert len(used) == 50 + 40 + 60 + 4 * 100


def test_load_split_same_seed_identical(tmp_path):
    pool = balanced_pool(1200, 4, seed=15)
    sizes = dict(per_client=80, server_train_n=40, server_val_n=30, test_n=50,
                 partition="dirichlet")
    a = csv_split(tmp_path, pool, n_clients=3, seed=8, **sizes)
    b = csv_split(tmp_path, pool, n_clients=3, seed=8, **sizes)
    for shard_a, shard_b in zip(a.client_train, b.client_train):
        np.testing.assert_array_equal(shard_a, shard_b)
    for k in range(3):
        np.testing.assert_array_equal(a.hidden_labels(k), b.hidden_labels(k))


def test_load_split_divisibility_error(tmp_path):
    pool = balanced_pool(300, 4, seed=16)
    with pytest.raises(ValueError, match="divisible"):
        csv_split(tmp_path, pool, n_clients=2, seed=0, per_client=20, server_train_n=30,
                  server_val_n=10, test_n=10)
    # One stray large label fails the check before a pool per class is built.
    X, y = balanced_pool(400, 10, seed=16)
    y[0] = 1_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="server_train_n 40 not divisible by 1000001 classes"):
            csv_split(tmp_path, (X, y), n_clients=2, seed=0, per_client=20, server_train_n=40,
                      server_val_n=10, test_n=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_load_split_rejects_a_class_short_of_its_server_rows(tmp_path):
    X, y = balanced_pool(300, 4, seed=16)
    keep = (y != 3) | (np.cumsum(y == 3) <= 2)  # two rows of class 3; the server needs 5
    with pytest.raises(ValueError, match="class 3 has too few instances for the server split"):
        csv_split(tmp_path, (X[keep], y[keep]), n_clients=2, seed=0, per_client=20,
                  server_train_n=20, server_val_n=10, test_n=10)


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_load_split_rejects_an_empty_training_pool(tmp_path, kind):
    if kind == "idx":
        paths = write_idx_pair(tmp_path, np.zeros((0, 2, 3)), [])
        files = dict(train_images=str(paths[0]), train_labels=str(paths[1]),
                     image_height=2, image_width=3)
    else:
        paths = (tmp_path / "train.csv",)
        write_csv(np.empty((0, 6)), [], paths[0])
        files = dict(train_csv=str(paths[0]))
    cfg = DataConfig(kind=kind, per_client=40, server_train_n=20, server_val_n=20, test_n=5,
                     **files)
    message = f"{paths[0]}: no rows, but the training pool needs at least one"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_split(cfg, n_clients=2, seed=3)


def test_collection_needs_one_label_per_row():
    with pytest.raises(ValueError, match="2 labels for 3 rows"):
        Collection(np.zeros((3, 2)), [0, 1])


def test_collection_needs_its_labels():
    # Client shards are plain arrays; a Collection is labeled rows only.
    with pytest.raises(TypeError, match="'y'"):
        Collection(np.zeros((3, 2)))


def test_collection_needs_a_feature_matrix():
    message = "features must be an (n, width) matrix, got shape (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Collection(np.zeros(3), [0, 1, 2])


def test_collection_takes_rows_as_a_list_and_keeps_uint8_pixels():
    rows = Collection([[0.25, 1.0], [0.5, 0.0]], [1, 0])
    assert rows.X.dtype == np.float32
    assert rows.X.tolist() == [[0.25, 1.0], [0.5, 0.0]]
    pixels = np.array([[3, 255], [0, 7]], dtype=np.uint8)
    stored = Collection(pixels, [1, 0]).X
    assert stored.dtype == np.uint8 and np.shares_memory(stored, pixels)


def test_collection_rejects_zero_rows():
    with pytest.raises(ValueError, match="a collection needs at least one row"):
        Collection(np.zeros((0, 2)), [])


@pytest.mark.parametrize("labels, named", [([0, -1, 1], -1), ([-1, 2, -7], -7)])
def test_collection_rejects_a_negative_label_and_names_it(labels, named):
    message = f"negative label {named}: every row must be labeled"
    with pytest.raises(ValueError, match=re.escape(message)):
        Collection(np.zeros((3, 2)), labels)


def labels_with_counts(counts, rng) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def assert_disjoint_within(parts, pool_size: int) -> None:
    positions = np.concatenate(parts)
    assert len(np.unique(positions)) == len(positions)
    assert ((0 <= positions) & (positions < pool_size)).all()


@settings(max_examples=150)
@given(
    n_classes=st.integers(2, 6),
    n_clients=st.integers(1, 5),
    server_per_class=st.integers(1, 4),
    server_val_n=st.integers(1, 15),
    test_n=st.integers(0, 15),
    per_client_units=st.integers(1, 12),
    mode=st.sampled_from(["iid", "dirichlet"]),
    alpha=st.floats(0.05, 5.0),
    spare=st.lists(st.integers(0, 10), min_size=12, max_size=12),
    separate_client_pool=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_carve_positions_are_disjoint_within_their_pool_and_exactly_sized(
    n_classes, n_clients, server_per_class, server_val_n, test_n, per_client_units,
    mode, alpha, spare, separate_client_pool, seed,
):
    # An iid shard takes per_client / n_classes rows of every class.
    per_client = per_client_units * (n_classes if mode == "iid" else 1)
    cfg = DataConfig(n_classes=n_classes, partition=mode, dirichlet_alpha=alpha,
                     per_client=per_client, server_train_n=server_per_class * n_classes,
                     server_val_n=server_val_n)
    # Every class has stock for its server rows, for validation and test
    # drawing only from it, and for every shard drawing only from it.
    rng = stream(seed, "carve-pool")
    need = n_clients * per_client
    labels = labels_with_counts(
        [server_per_class + server_val_n + test_n + need + s for s in spare[:n_classes]], rng
    )
    shard_labels = None
    if separate_client_pool:
        shard_labels = labels_with_counts([need + s for s in spare[-n_classes:]], rng)

    server, val, test, shards = _carve(labels, cfg, n_clients, seed, test_n, shard_labels)
    assert (len(server), len(val), len(test)) == (cfg.server_train_n, server_val_n, test_n)
    assert [len(shard) for shard in shards] == [per_client] * n_clients
    np.testing.assert_array_equal(np.bincount(labels[server], minlength=n_classes),
                                  np.full(n_classes, server_per_class))
    if shard_labels is None:
        assert_disjoint_within([server, val, test, *shards], len(labels))
    else:
        assert_disjoint_within([server, val, test], len(labels))
        assert_disjoint_within(shards, len(shard_labels))
    # partition on its own, over the whole shard pool.
    pool = labels if shard_labels is None else shard_labels
    direct = partition(pool, n_clients, mode, per_client, seed, alpha)
    assert [len(shard) for shard in direct] == [per_client] * n_clients
    assert_disjoint_within(direct, len(pool))


def test_synthetic_blobs_balanced_and_bounded():
    features, labels = synthetic_blobs(120, 6, 10, stream(17, "blobs"))
    assert features.shape == (120, 10)
    counts = np.bincount(labels, minlength=6)
    np.testing.assert_array_equal(counts, np.full(6, 20))
    assert features.min() >= 0.0 and features.max() <= 1.0


# Pool values per chunk: the default (one chunk for these pools), 14 rows of
# 5 and 11 rows of 6 with a short last chunk, and one row.
BLOB_CHUNKS = (data._BLOB_CHUNK, 70, 1)


def test_synthetic_blobs_match_per_row_draws(monkeypatch):
    # Chunked generation must reproduce one draw per row, in row order.
    for chunk in BLOB_CHUNKS:
        monkeypatch.setattr(data, "_BLOB_CHUNK", chunk)
        rng = stream(18, "blobs")
        features, labels = synthetic_blobs(600, 4, 5, rng, spread=0.3)
        ref = stream(18, "blobs")
        centers = ref.uniform(0.2, 0.8, size=(4, 5))
        for i in range(600):
            expected = np.clip(centers[i % 4] + ref.normal(0.0, 0.3, size=5), 0.0, 1.0)
            np.testing.assert_array_equal(features[i], expected.astype(np.float32))
            assert labels[i] == i % 4
        assert rng.bit_generator.state == ref.bit_generator.state


def test_synthetic_image_pixels_round_the_per_row_float64_draws(monkeypatch):
    # As pixels, each row is rint(255 x) of the float64 row x that the vector
    # path stores as float32, from the same draws in the same order.
    ref = stream(18, "blobs")
    centers = ref.uniform(0.2, 0.8, size=(4, 6))
    expected = np.array([np.rint(255 * np.clip(centers[i % 4] + ref.normal(0.0, 0.3, size=6),
                                               0.0, 1.0)) for i in range(300)])
    assert {0, 255} <= set(expected.ravel())  # clipped pixels, both ends
    parts = [np.arange(0, 300, 3), np.arange(1, 300, 3)]
    for chunk in BLOB_CHUNKS:
        monkeypatch.setattr(data, "_BLOB_CHUNK", chunk)
        rng = stream(18, "blobs")
        rng.uniform(0.2, 0.8, size=(4, 6))
        kept = _blob_rows(centers, np.arange(300) % 4, rng, 0.3, parts, pixels=True)
        for part, rows in zip(kept, parts):
            assert part.dtype == np.uint8
            np.testing.assert_array_equal(part, expected[rows])
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


@pytest.mark.parametrize("part", ["train", "test"])
def test_load_split_rejects_an_idx_file_of_another_image_shape(tmp_path, part):
    # 8 x 8 and 4 x 16 images both have 64 pixels; only the header tells them apart.
    rng = stream(24, "idx-shape")
    files = {}
    for name, n in (("train", 400), ("test", 30)):
        (tmp_path / name).mkdir()
        shape = (n, 8, 8) if name == part else (n, 4, 16)
        files[name] = write_idx_pair(tmp_path / name, rng.integers(0, 256, size=shape),
                                     (np.arange(n) % 4).tolist())
    cfg = DataConfig(
        kind="idx", train_images=str(files["train"][0]), train_labels=str(files["train"][1]),
        test_images=str(files["test"][0]), test_labels=str(files["test"][1]),
        image_height=4, image_width=16, per_client=40, server_train_n=20, server_val_n=20,
        test_n=5,
    )
    message = f"{files[part][0]}: images are 8 x 8, but image_height x image_width is 4 x 16"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_split(cfg, n_clients=2, seed=3)


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
    # test_n = 0 takes the whole file, in file order.
    whole = load_split(replace(cfg, test_n=0), n_clients=2, seed=3)
    np.testing.assert_array_equal(whole.test.X, test_X)
    np.testing.assert_array_equal(whole.test.y, test_y)

    blank_label(tmp_path / "train.csv", line=9)
    with pytest.raises(ValueError, match=r"train\.csv: line 9: empty label"):
        load_split(cfg, n_clients=2, seed=3)


@pytest.mark.parametrize("sizes, part", [
    (dict(server_val_n=90, test_n=5), "validation"),
    (dict(server_val_n=40, test_n=50), "test"),
], ids=["validation", "test"])
def test_load_split_rejects_a_pool_too_small_for_its_split(tmp_path, sizes, part):
    # 100 rows: 20 go to the server, 80 are left for validation and test.
    pool = balanced_pool(100, 4, seed=21)
    with pytest.raises(ValueError, match=f"not enough instances left for the {part} split"):
        csv_split(tmp_path, pool, n_clients=1, seed=0, per_client=4, server_train_n=20,
                  **sizes)


def blank_label(path, line: int) -> None:
    """Empty the label cell of one line of a csv file."""
    lines = path.read_text().splitlines()
    lines[line - 1] = lines[line - 1][lines[line - 1].index(","):]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("part", ["train", "test"])
def test_load_split_names_the_file_and_line_of_an_unlabeled_csv_row(tmp_path, part):
    features, labels = synthetic_blobs(400, 4, 6, stream(22, "csv-unlabeled"))
    paths = {name: tmp_path / f"{name}.csv" for name in ("train", "test")}
    write_csv(features[:300], labels[:300], paths["train"])
    write_csv(features[300:], labels[300:], paths["test"])
    blank_label(paths[part], line=9)
    # test_n subsamples the test file, but every row of it must be labeled.
    cfg = DataConfig(
        kind="csv", train_csv=str(paths["train"]), test_csv=str(paths["test"]),
        per_client=40, server_train_n=20, server_val_n=20, test_n=5,
    )
    message = f"{paths[part]}: line 9: empty label, but every row must be labeled"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_split(cfg, n_clients=2, seed=3)


TEST_FILE_PROBLEMS = {
    "width": "5 features per row, but the training pool has 6",
    "rows": "no rows, but a test file needs at least one",
    "labels": "label 5 is not a class of the training pool, whose labels are 0..3",
}


@pytest.mark.parametrize("kind", ["csv", "idx"])
@pytest.mark.parametrize("case", TEST_FILE_PROBLEMS)
def test_load_split_rejects_a_test_file_the_pool_cannot_score(tmp_path, kind, case):
    rng = stream(23, "test-file")
    test_shape = {"width": (30, 1, 5), "rows": (0, 2, 3), "labels": (30, 2, 3)}[case]
    files = {}
    for part, shape, n_classes in [("train", (400, 2, 3), 4),
                                   ("test", test_shape, 6 if case == "labels" else 4)]:
        pixels = rng.integers(0, 256, size=shape)
        labels = np.arange(shape[0]) % n_classes
        (tmp_path / part).mkdir()
        if kind == "idx":
            files[part] = write_idx_pair(tmp_path / part, pixels, labels.tolist())
        else:
            files[part] = (tmp_path / part / "d.csv",) * 2
            write_csv(pixels.reshape(shape[0], shape[1] * shape[2]) / 255.0, labels,
                      files[part][0])
    paths = dict(train_images=str(files["train"][0]), train_labels=str(files["train"][1]),
                 test_images=str(files["test"][0]), test_labels=str(files["test"][1]))
    problem = TEST_FILE_PROBLEMS[case]
    if kind == "csv":
        paths = dict(train_csv=paths["train_images"], test_csv=paths["test_images"])
    else:
        paths.update(image_height=2, image_width=3)
        if case == "width":
            # The header's 1 x 5 shape fails before the width is compared.
            problem = "images are 1 x 5, but image_height x image_width is 2 x 3"
    cfg = DataConfig(kind=kind, per_client=40, server_train_n=20, server_val_n=20, test_n=5,
                     **paths)
    blamed = files["test"][1 if case == "labels" else 0]
    with pytest.raises(ValueError, match=re.escape(f"{blamed}: {problem}")):
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
        assert not shard.flags.writeable


def test_synthetic_load_split_peaks_near_the_bytes_it_returns():
    # The paper_iid shape.  The blob pools are drawn chunk by chunk and each
    # collection is gathered once, so the peak stays near the split's own
    # bytes; holding a whole pool beside the split would about double it.
    cfg = DataConfig(n_features=784, image_height=28, image_width=28)
    tracemalloc.start()
    try:
        split = load_split(cfg, n_clients=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = split_bytes(split)
    assert peak <= 1.1 * held, peak / held


def split_bytes(split) -> int:
    """Bytes of every feature and label array a split holds."""
    labeled = (split.server_train, split.server_val, split.test)
    held = sum(coll.X.nbytes + coll.y.nbytes for coll in labeled)
    return held + sum(shard.nbytes + split.hidden_labels(k).nbytes
                      for k, shard in enumerate(split.client_train))


def write_idx_files(tmp_path, rng, n_rows: dict, shape, n_classes: int) -> dict:
    """Random-pixel IDX pairs, one per part, as DataConfig path keys."""
    paths = {}
    for part, n in n_rows.items():
        (tmp_path / part).mkdir()
        images, labels = write_idx_pair(tmp_path / part, rng.integers(0, 256, size=(n, *shape)),
                                        (np.arange(n) % n_classes).tolist())
        paths.update({f"{part}_images": str(images), f"{part}_labels": str(labels)})
    return dict(paths, image_height=shape[0], image_width=shape[1])


@pytest.mark.parametrize("gz", [False, True], ids=["raw", "gz"])
def test_idx_load_split_peaks_near_its_files_and_split(tmp_path, gz):
    # Fashion-MNIST-shaped images, fewer of them.  Each file's pixels stay the
    # uint8 bytes read, so the peak is about the file bytes, one a pixel of
    # pool, and the split gathered from them; a float32 pool alone would add
    # four bytes a pixel, and a gzipped file decompressed whole before it is
    # copied out would add one.
    n_rows = {"train": 2000, "test": 300}
    paths = write_idx_files(tmp_path, stream(28, "idx-peak"), n_rows, (28, 28), 10)
    if gz:
        paths.update({key: gzip_file(path) for key, path in paths.items()
                      if key.endswith(("_images", "_labels"))})
    cfg = DataConfig(kind="idx", per_client=100, server_train_n=100, server_val_n=50,
                     test_n=100, **paths)
    tracemalloc.start()
    try:
        split = load_split(cfg, n_clients=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = sum(n_rows.values()) * 28 * 28 + split_bytes(split)
    assert peak <= 1.1 * bound, peak / bound


# Pixels stay uint8; any other feature is stored as float32.
STORED_DTYPE = {"synthetic": np.float32, "synthetic_images": np.uint8, "csv": np.float32,
                "idx": np.uint8}


@pytest.mark.parametrize("kind", sorted(STORED_DTYPE))
def test_load_split_stores_every_collection_and_shard_read_only_in_its_dtype(tmp_path, kind):
    sizes = dict(per_client=40, server_train_n=20, server_val_n=20, test_n=5)
    if kind.startswith("synthetic"):
        shape = dict(image_height=2, image_width=3) if kind == "synthetic_images" else {}
        cfg = DataConfig(n_classes=4, n_features=6, **sizes, **shape)
    else:
        paths = write_idx_files(tmp_path, stream(25, "dtype-pool"), {"train": 400, "test": 30},
                                (2, 3), 4)
        if kind == "csv":
            csv = {}
            for part in ("train", "test"):
                X, y = ingest_idx(paths[f"{part}_images"], paths[f"{part}_labels"])
                csv[f"{part}_csv"] = str(tmp_path / f"{part}.csv")
                write_csv(X / 255.0, y, csv[f"{part}_csv"])
            paths = csv
        cfg = DataConfig(kind=kind, **sizes, **paths)
    split = load_split(cfg, n_clients=2, seed=3)
    for X in (split.server_train.X, split.server_val.X, split.test.X, *split.client_train):
        assert X.dtype == STORED_DTYPE[kind] and not X.flags.writeable


@pytest.mark.parametrize("source", ["synthetic", "idx"])
def test_network_sees_the_same_bytes_in_stored_rows_as_in_their_float64_source(
        tmp_path, source):
    # At float32 parameters the network casts float64 rows to float32 as they
    # enter it, so storing them as float32 moves no bit of an un-augmented
    # forward pass or gradient.  IDX pixels are stored as uint8 and become,
    # a block at a time, the float32 rows pixel / 255 once stored in their
    # place, so they also augment to those rows' bytes.
    n, width = 600, 28 * 28
    if source == "synthetic":
        stored, labels = synthetic_blobs(n, 10, width, stream(26, "blobs"), spread=0.3)
        ref = stream(26, "blobs")
        centers = ref.uniform(0.2, 0.8, size=(10, width))
        rows = np.clip(centers[labels] + ref.normal(0.0, 0.3, size=(n, width)), 0.0, 1.0)
    else:
        pixels, labels = stream(26, "pixels").integers(0, 256, size=(n, 28, 28)), [3] * n
        stored, _ = ingest_idx(*write_idx_pair(tmp_path, pixels, labels))
        rows = pixels.reshape(n, width) / 255.0
    assert stored.dtype == STORED_DTYPE[source] and rows.dtype == np.float64
    params = make_params((width, 128, 64, 10), seed=27)
    batch = slice(100, 164)
    for same in (rows, rows.astype(np.float32)):
        assert forward_batch(params, stored).tobytes() == forward_batch(params, same).tobytes()
        assert (gradient(params, stored[batch], labels[batch]).tobytes()
                == gradient(params, same[batch], labels[batch]).tobytes())
    if source == "idx":
        replaced = rows.astype(np.float32)
        for augment in (augment_weak, augment_strong):
            rng_stored, rng_replaced = stream(26, "aug"), stream(26, "aug")
            assert (augment(stored[batch], rng_stored, (28, 28)).tobytes()
                    == augment(replaced[batch], rng_replaced, (28, 28)).tobytes())
            assert rng_stored.bit_generator.state == rng_replaced.bit_generator.state
