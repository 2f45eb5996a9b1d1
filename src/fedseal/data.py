"""Datasets: ingestion, client partitioning, augmentation.

A dataset is a pair of arrays: an (n, width) feature matrix with values in
[0, 1] and n integer class labels, ``UNLABELED`` where a row has none.  A
:class:`DatasetSplit` carves one labeled pool into the four collections a
run needs (server train, server validation, per-client unlabeled shards,
test), each a row-aligned :class:`Collection` built once.  Client shards
expose no labels to algorithm code; their true labels are kept in arrays
aligned with the shards, reachable only through
:meth:`DatasetSplit.hidden_labels`, which exists for correctness metrics and
the label-oracle baseline.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .rng import stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

IID = "iid"
DIRICHLET = "dirichlet"

UNLABELED = -1


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Collection:
    """Row-aligned (n, width) features and labels of one collection.

    ``y`` is None for client shards.  Both are read-only views.
    """

    def __init__(self, X, y=None):
        self.X = _frozen(np.asarray(X, dtype=np.float64))
        self.y = None if y is None else _frozen(np.asarray(y, dtype=np.int64))
        if self.X.ndim != 2:
            raise ValueError(f"features must be an (n, width) matrix, got shape {self.X.shape}")
        if self.y is not None and self.y.shape != (len(self),):
            raise ValueError(f"{self.y.size} labels for {len(self)} rows")

    def __len__(self) -> int:
        return self.X.shape[0]


class DatasetSplit:
    """Disjoint server/validation/client/test collections for one run."""

    def __init__(
        self,
        server_train: Collection,
        server_val: Collection,
        client_train: list[Collection],
        test: Collection,
        hidden_labels: list[np.ndarray],
    ):
        self.server_train = server_train
        self.server_val = server_val
        self.client_train = list(client_train)
        self.test = test
        self._hidden_labels = [_frozen(np.asarray(h, dtype=np.int64)) for h in hidden_labels]
        self._validate()

    def _validate(self) -> None:
        labeled = {"server_train": self.server_train, "server_val": self.server_val,
                   "test": self.test}
        collections = [*labeled.values(), *self.client_train]
        widths = sorted({coll.X.shape[1] for coll in collections})
        if len(widths) > 1:
            raise ValueError(f"collections disagree on feature width: {widths}")
        for name, coll in labeled.items():
            if coll.y is None or (coll.y < 0).any():
                raise ValueError(f"{name} rows must be labeled")
        if len(self._hidden_labels) != len(self.client_train):
            raise ValueError(
                f"{len(self._hidden_labels)} hidden label arrays for "
                f"{len(self.client_train)} client shards"
            )
        for k, (shard, hidden) in enumerate(zip(self.client_train, self._hidden_labels)):
            if shard.y is not None:
                raise ValueError(f"client shard {k} leaks its labels")
            if hidden.shape != (len(shard),) or (hidden < 0).any():
                raise ValueError(f"client shard {k} needs one hidden label per row")

    @property
    def n_classes(self) -> int:
        return int(max(coll.y.max() for coll in (self.server_train, self.server_val, self.test)
                       if len(coll))) + 1

    @property
    def feature_width(self) -> int:
        return self.server_train.X.shape[1]

    def hidden_labels(self, k: int) -> np.ndarray:
        """True labels of client shard ``k``, aligned with its rows.

        For correctness metrics and the label-oracle baseline only; algorithm
        code must never call this.
        """
        return self._hidden_labels[k]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _read_be32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise ValueError(f"{path}: truncated header at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def _read_binary(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as f:
        return f.read()


def ingest_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label file pair (big-endian, standard magics).

    Returns (features, labels): pixels scaled by 1/255 and flattened
    row-major, one row per image.  Paths ending in ``.gz`` are decompressed
    transparently.
    """
    img_buf = _read_binary(images_path)
    lbl_buf = _read_binary(labels_path)

    magic = _read_be32(img_buf, 0, str(images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(
            f"{images_path}: bad image magic 0x{magic:08x} at byte offset 0, "
            f"expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    count = _read_be32(img_buf, 4, str(images_path))
    rows = _read_be32(img_buf, 8, str(images_path))
    cols = _read_be32(img_buf, 12, str(images_path))
    expected = 16 + count * rows * cols
    if len(img_buf) != expected:
        raise ValueError(
            f"{images_path}: expected {expected} bytes, got {len(img_buf)} "
            f"(mismatch from byte offset {min(expected, len(img_buf))})"
        )

    lbl_magic = _read_be32(lbl_buf, 0, str(labels_path))
    if lbl_magic != IDX_LABEL_MAGIC:
        raise ValueError(
            f"{labels_path}: bad label magic 0x{lbl_magic:08x} at byte offset 0, "
            f"expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    lbl_count = _read_be32(lbl_buf, 4, str(labels_path))
    if len(lbl_buf) != 8 + lbl_count:
        raise ValueError(
            f"{labels_path}: expected {8 + lbl_count} bytes, got {len(lbl_buf)} "
            f"(mismatch from byte offset {min(8 + lbl_count, len(lbl_buf))})"
        )
    if lbl_count != count:
        raise ValueError(
            f"{labels_path}: {lbl_count} labels but {images_path} has {count} images"
        )

    pixels = np.frombuffer(img_buf, dtype=np.uint8, offset=16)
    images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lbl_buf, dtype=np.uint8, offset=8).astype(np.int64)
    return images, labels


def ingest_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load ``label,f0,f1,...`` CSV into (features, labels).

    An empty label cell reads as ``UNLABELED``.  Feature cells must be finite
    numbers in [0, 1]; a bad cell fails with its file and line.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    if header[0] != "label" or any(
        name != f"f{i}" for i, name in enumerate(header[1:])
    ):
        raise ValueError(f"{path}: line 1: expected header 'label,f0,f1,...'")
    width = len(header) - 1

    features = np.empty((len(lines) - 1, width))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for row, line in enumerate(lines[1:]):
        line_no = row + 2
        cells = line.split(",")
        if len(cells) != width + 1:
            raise ValueError(
                f"{path}: line {line_no}: expected {width + 1} cells, got {len(cells)}"
            )
        if cells[0] == "":
            labels[row] = UNLABELED
        else:
            try:
                labels[row] = int(cells[0])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-integer label {cells[0]!r}"
                ) from None
            if labels[row] < 0:
                raise ValueError(f"{path}: line {line_no}: negative label {cells[0]!r}")
        try:
            x = np.array([float(c) for c in cells[1:]])
        except ValueError:
            raise ValueError(
                f"{path}: line {line_no}: non-numeric feature cell"
            ) from None
        if not np.isfinite(x).all():
            raise ValueError(f"{path}: line {line_no}: non-finite feature value")
        if ((x < 0.0) | (x > 1.0)).any():
            raise ValueError(f"{path}: line {line_no}: feature value outside [0, 1]")
        features[row] = x
    return features, labels


def write_csv(features: np.ndarray, labels: np.ndarray, path) -> None:
    """Inverse of :func:`ingest_csv`; floats written with full precision."""
    features = np.asarray(features, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(features.shape[1])) + "\n")
        for x, label in zip(features, labels):
            cell = "" if label == UNLABELED else str(int(label))
            f.write(cell + "," + ",".join(repr(float(v)) for v in x) + "\n")


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _class_pools(labels: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Per class, the positions of its rows in ``labels``, shuffled."""
    if (labels < 0).any():
        raise ValueError("partition pool must be fully labeled")
    n_classes = int(labels.max()) + 1
    pools = [np.flatnonzero(labels == m) for m in range(n_classes)]
    return [pool[rng.permutation(len(pool))] for pool in pools]


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    # Stable sort keeps ties deterministic (lowest class index first).
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def partition(
    labels: np.ndarray,
    n_clients: int,
    mode: str,
    per_client: int,
    rng_seed: int,
    alpha: float = 0.5,
) -> list[np.ndarray]:
    """Split a labeled pool into disjoint per-client shards of fixed size.

    Takes the pool's labels and returns, per client, the positions of its
    rows in the pool.  ``iid`` deals per_client / n_classes rows of every
    class to each client (the request must divide evenly).  ``dirichlet``
    draws per-client class proportions from Dirichlet(alpha), then samples
    without replacement; when a class pool runs dry the deficit moves to the
    classes with the most stock left.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha}")
    if len(labels) < n_clients * per_client:
        raise ValueError(
            f"pool of {len(labels)} instances cannot supply "
            f"{n_clients} clients x {per_client} instances"
        )
    rng = stream(rng_seed, "partition")
    # Each class pool is dealt from its end.
    pools = [pool[::-1] for pool in _class_pools(labels, rng)]
    n_classes = len(pools)

    if mode == IID:
        if per_client % n_classes != 0:
            raise ValueError(
                f"iid partition needs per_client divisible by {n_classes} classes, "
                f"got {per_client}"
            )
        per_class = per_client // n_classes
        for m, pool in enumerate(pools):
            if len(pool) < per_class * n_clients:
                raise ValueError(
                    f"class {m} has {len(pool)} instances, "
                    f"iid partition needs {per_class * n_clients}"
                )
        return [
            np.concatenate([pool[k * per_class : (k + 1) * per_class] for pool in pools])
            for k in range(n_clients)
        ]

    if mode == DIRICHLET:
        taken = np.zeros(n_classes, dtype=int)
        shards = []
        for _ in range(n_clients):
            proportions = rng.dirichlet(np.full(n_classes, alpha))
            counts = _largest_remainder_counts(proportions, per_client)
            remaining = np.array([len(pool) for pool in pools]) - taken
            counts = np.minimum(counts, remaining)
            while counts.sum() < per_client:
                # Top up from the class with the most stock left.
                stock = remaining - counts
                counts[int(np.argmax(stock))] += 1
            shards.append(np.concatenate([
                pool[start : start + count]
                for pool, start, count in zip(pools, taken, counts)
            ]))
            taken += counts
        return shards

    raise ValueError(f"unknown partition mode {mode!r}")


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def _stack(X, image_shape) -> np.ndarray:
    """(n, h, w) float copy of an (n, width) batch; a vector row is 1 x width."""
    X = np.array(X, dtype=np.float64)
    h, w = (1, X.shape[-1]) if image_shape is None else image_shape
    if X.ndim != 2 or X.shape[1] != h * w:
        raise ValueError(f"augmentation expects an (n, {h * w}) batch, got shape {X.shape}")
    return X.reshape(len(X), h, w)


def _shift(imgs: np.ndarray, dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """out[r, i, j] = imgs[r, i + dy[r], j + dx[r]], and 0 where that is outside."""
    k, h, w = imgs.shape
    p = int(max(np.abs(dy).max(initial=0), np.abs(dx).max(initial=0)))
    padded = np.zeros((k, h + 2 * p, w + 2 * p))
    padded[:, p : p + h, p : p + w] = imgs
    windows = sliding_window_view(padded, (h, w), axis=(1, 2))
    return windows[np.arange(k), p + dy, p + dx]


def _rotate(imgs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Row r turned by angles[r] degrees about its centre, bilinear, 0 outside.

    As ``ndimage.rotate(reshape=False, order=1, mode="constant")`` computes it.
    """
    k, h, w = imgs.shape
    c, s = special.cosdg(angles)[:, None, None], special.sindg(angles)[:, None, None]
    cy, cx = (h - 1) / 2, (w - 1) / 2
    i, j = np.arange(h)[:, None], np.arange(w)
    y = (cy - (c * cy + s * cx)) + i * c + j * s
    x = (cx - (c * cx - s * cy)) + i * -s + j * c
    inside = (y >= 0) & (y <= h - 1) & (x >= 0) & (x <= w - 1)
    # Each pixel's 2 x 2 cell, kept inside: on the far edge fy or fx is then 1.
    y0, x0 = np.floor(y).clip(0, max(h - 2, 0)), np.floor(x).clip(0, max(w - 2, 0))
    fy, fx = y - y0, x - x0
    at = (y0 * w + x0).astype(np.intp) + (np.arange(k) * (h * w))[:, None, None]
    flat, down, right = imgs.reshape(-1), (w if h > 1 else 0), (1 if w > 1 else 0)
    top = (1 - fx) * flat.take(at) + fx * flat.take(at + right)
    bottom = (1 - fx) * flat.take(at + down) + fx * flat.take(at + down + right)
    return np.where(inside, (1 - fy) * top + fy * bottom, 0.0)


_IMAGE_OPS = ("flip", "crop", "rotate", "translate", "cutout", "contrast", "noise")
_VECTOR_OPS = ("noise", "cutout", "contrast")


def _cutout_box(h: int, w: int, image: bool) -> tuple[int, int]:
    # Half the side each way masks ~25% of an image; a vector loses a quarter.
    return (max(1, h // 2), max(1, w // 2)) if image else (1, max(1, w // 4))


def _draw_params(op: str, k: int, h: int, w: int, rng, image: bool = True):
    """Parameters of ``op`` for k rows of h x w, one draw for all k rows.

    A vector row is 1 x width: its noise is (k, 1, w), its cutout corners
    have row 0, and the cutout box is the one :func:`_cutout_box` gives it.
    """
    if op == "crop":  # a same-size crop of the image zero-padded by 2 px
        return rng.integers(0, 5, size=(k, 2)) - 2
    if op == "translate":
        return -rng.integers(-3, 4, size=(k, 2))
    if op == "rotate":
        return rng.uniform(-15.0, 15.0, size=k)
    if op == "cutout":
        mh, mw = _cutout_box(h, w, image)
        return rng.integers(0, [h - mh + 1, w - mw + 1], size=(k, 2))
    if op == "contrast":
        return 1.0 + rng.uniform(-0.4, 0.4, size=k)
    return rng.normal(0.0, 0.1, size=(k, h, w)) if op == "noise" else None


def _apply_op(op: str, imgs: np.ndarray, params, image: bool = True) -> np.ndarray:
    """``op`` on a (k, h, w) stack with one parameter per row, as _draw_params gives them."""
    _, h, w = imgs.shape
    if op == "flip":
        return imgs[:, :, ::-1]
    if op in ("crop", "translate"):  # params: (dy, dx) shifts
        return _shift(imgs, *params.T)
    if op == "rotate":
        return _rotate(imgs, params)
    if op == "cutout":  # params: (top, left) corners
        mh, mw = _cutout_box(h, w, image)
        ys, xs = np.arange(h)[:, None] - params[:, :1, None], np.arange(w) - params[:, 1:, None]
        return np.where((ys >= 0) & (ys < mh) & (xs >= 0) & (xs < mw), 0.5, imgs)
    if op == "contrast":
        return 0.5 + params[:, None, None] * (imgs - 0.5)
    return imgs + params


def augment_weak(X: np.ndarray, rng, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Mild transform of an (n, width) batch: flip + crop for images, light noise otherwise.

    Images draw a flip mask, ``rng.random(n)``, then the crop offsets;
    vectors draw one (n, width) block of N(0, 0.05) noise.
    """
    imgs = _stack(X, image_shape)
    n, h, w = imgs.shape
    if image_shape is None:
        imgs = imgs + rng.normal(0.0, 0.05, size=imgs.shape)
    else:
        flip = rng.random(n) < 0.5
        imgs[flip] = imgs[flip, :, ::-1]
        imgs = _apply_op("crop", imgs, _draw_params("crop", n, h, w, rng))
    return np.clip(imgs.reshape(n, h * w), 0.0, 1.0)


def augment_strong(X: np.ndarray, rng, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Aggressive transform of an (n, width) batch: two ops per row from the pool.

    Image pool: flip, crop, rotate +-15 deg, translate +-3 px, cutout of 25%
    of the area to 0.5, contrast jitter +-0.4, Gaussian noise sigma 0.1.
    Without an image shape the geometric ops drop out and the pool is noise,
    contiguous-segment cutout and contrast jitter.  Pixels shifted in from
    outside the image are 0.  Both pools draw the same way: the (n, 2) op
    codes, then for each slot and each op in pool order one draw holding the
    parameters of every row that picked it (see :func:`_draw_params`).
    """
    imgs = _stack(X, image_shape)
    n, h, w = imgs.shape
    image = image_shape is not None
    pool = _IMAGE_OPS if image else _VECTOR_OPS
    ops = rng.integers(0, len(pool), size=(n, 2))
    for slot in range(2):
        for code, op in enumerate(pool):
            rows = np.flatnonzero(ops[:, slot] == code)
            if rows.size:
                params = _draw_params(op, rows.size, h, w, rng, image)
                imgs[rows] = _apply_op(op, imgs[rows], params, image)
    return np.clip(imgs.reshape(n, h * w), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Dataset specification
# ---------------------------------------------------------------------------


@dataclass
class DataConfig:
    """Where a run's data comes from and how it is carved up."""

    kind: str = "synthetic"  # synthetic | idx | csv
    partition: str = IID
    dirichlet_alpha: float = 0.5
    per_client: int = 1200
    server_train_n: int = 500
    server_val_n: int = 200
    test_n: int = 3000
    # synthetic
    n_classes: int = 10
    n_features: int = 32
    spread: float = 0.1
    # idx
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    image_height: int = 0
    image_width: int = 0
    # csv
    train_csv: str = ""
    test_csv: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "idx", "csv"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.partition not in (IID, DIRICHLET):
            raise ValueError(f"unknown partition mode {self.partition!r}")
        synthetic = ("n_classes", "n_features") if self.kind == "synthetic" else ()
        for name in ("per_client", "server_train_n", "server_val_n", *synthetic):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        least = 0 if {"idx": self.test_images, "csv": self.test_csv}.get(self.kind) else 1
        if self.test_n < least:
            raise ValueError(f"test_n must be >= {least} (0 takes a whole test file), "
                             f"got {self.test_n}")
        if not self.dirichlet_alpha > 0:
            raise ValueError(f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}")
        if not self.spread >= 0:
            raise ValueError(f"spread must be >= 0, got {self.spread}")
        if self.kind == "idx" and not (self.train_images and self.train_labels):
            raise ValueError("idx data needs train_images and train_labels paths")
        if self.kind == "csv" and not self.train_csv:
            raise ValueError("csv data needs a train_csv path")
        h, w = self.image_height, self.image_width
        if (h, w) != (0, 0) and min(h, w) < 1:
            bad = "image_height" if h < 1 else "image_width"
            raise ValueError(f"{bad} must be >= 1 for images (both 0 for vectors), got {h} x {w}")
        if self.kind == "synthetic" and h > 0 and self.n_features != h * w:
            raise ValueError(f"n_features = {self.n_features} must equal image_height x "
                             f"image_width = {h} x {w}")

    @property
    def image_shape(self) -> tuple[int, int] | None:
        if self.image_height > 0 and self.image_width > 0:
            return (self.image_height, self.image_width)
        return None


def load_split(cfg: DataConfig, n_clients: int, seed: int) -> DatasetSplit:
    """Materialize the configured dataset and carve the run split."""
    test_pool = None
    client_pool = None
    if cfg.kind == "synthetic":
        # Server/val/test rows draw from streams that do not involve
        # n_clients, so those collections are identical whatever the client
        # count; only the client pool scales.  All parts share one set of
        # class centers.
        centers = stream(seed, "data-centers").uniform(
            0.2, 0.8, size=(cfg.n_classes, cfg.n_features)
        )
        core_n = cfg.server_train_n + cfg.server_val_n + cfg.test_n
        pool = _blob_pool(centers, core_n, stream(seed, "data-core"), cfg.spread)
        client_pool = _blob_pool(
            centers, n_clients * cfg.per_client, stream(seed, "data-clients"), cfg.spread
        )
    else:
        if cfg.kind == "idx":
            train = ingest_idx(cfg.train_images, cfg.train_labels)
            test = ingest_idx(cfg.test_images, cfg.test_labels) if cfg.test_images else None
        else:
            train = ingest_csv(cfg.train_csv)
            if (train[1] == UNLABELED).any():
                raise ValueError("csv training pool must be fully labeled")
            test = ingest_csv(cfg.test_csv) if cfg.test_csv else None
        if cfg.image_shape and train[0].shape[1] != np.prod(cfg.image_shape):
            raise ValueError(f"image_height x image_width = {cfg.image_height} x "
                             f"{cfg.image_width} does not fit {train[0].shape[1]} features")
        pool = _array_pool(*train)
        if test is not None:
            test_X, test_y = test
            if 0 < cfg.test_n < len(test_y):
                keep = stream(seed, "test").permutation(len(test_y))[: cfg.test_n]
                test_X, test_y = test_X[keep], test_y[keep]
            test_pool = _array_pool(test_X, test_y)

    return _carve(
        pool,
        n_clients=n_clients,
        per_client=cfg.per_client,
        server_train_n=cfg.server_train_n,
        server_val_n=cfg.server_val_n,
        seed=seed,
        partition_mode=cfg.partition,
        alpha=cfg.dirichlet_alpha,
        test_n=cfg.test_n,
        test_pool=test_pool,
        client_pool=client_pool,
    )


# ---------------------------------------------------------------------------
# Synthetic data and split assembly
# ---------------------------------------------------------------------------

# A pool is (labels, take): take(positions) returns the feature rows at those
# positions, and is called once per pool.
_BLOB_CHUNK = 256


def _array_pool(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return np.asarray(labels, dtype=np.int64), lambda positions: features[positions]


def _blob_pool(centers: np.ndarray, n: int, rng: np.random.Generator, spread: float):
    """An n-row Gaussian-blob pool whose features are generated on ``take``.

    Row i has label i % n_classes and features clip(center + N(0, spread)),
    drawn from ``rng`` in row order.  ``take`` generates the rows chunk by
    chunk and keeps only the requested ones, so the whole pool is never held
    in memory beside the collections cut from it.
    """
    n_classes, width = centers.shape
    labels = np.arange(n) % n_classes

    def take(positions: np.ndarray) -> np.ndarray:
        out = np.empty((len(positions), width))
        dest = np.full(n, -1)
        dest[positions] = np.arange(len(positions))
        for lo in range(0, n, _BLOB_CHUNK):
            hi = min(lo + _BLOB_CHUNK, n)
            block = rng.normal(0.0, spread, size=(hi - lo, width))
            block += centers[labels[lo:hi]]
            np.clip(block, 0.0, 1.0, out=block)
            kept = dest[lo:hi] >= 0
            out[dest[lo:hi][kept]] = block[kept]
        return out

    return labels, take


def synthetic_blobs(
    n_instances: int,
    n_classes: int,
    n_features: int,
    rng: np.random.Generator,
    spread: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian class blobs as (features, labels), features in [0, 1]."""
    centers = rng.uniform(0.2, 0.8, size=(n_classes, n_features))
    labels, take = _blob_pool(centers, n_instances, rng, spread)
    return take(np.arange(n_instances)), labels


def build_split(
    pool: tuple[np.ndarray, np.ndarray],
    n_clients: int,
    per_client: int,
    server_train_n: int,
    server_val_n: int,
    seed: int,
    partition_mode: str = IID,
    alpha: float = 0.5,
    test_n: int = 0,
    test_pool: tuple[np.ndarray, np.ndarray] | None = None,
) -> DatasetSplit:
    """Carve one labeled (features, labels) pool into a full run split.

    The server training set is class-balanced (equal count per class, as
    evenly divisible); validation and test (when carved rather than supplied
    as ``test_pool``) are random draws from the remainder.  Client shards
    come from :func:`partition` over what is left; their labels move to the
    hidden arrays.
    """
    return _carve(
        _array_pool(*pool), n_clients, per_client, server_train_n, server_val_n, seed,
        partition_mode, alpha, test_n,
        None if test_pool is None else _array_pool(*test_pool), None,
    )


def _carve(
    pool, n_clients, per_client, server_train_n, server_val_n, seed,
    partition_mode, alpha, test_n, test_pool, client_pool,
) -> DatasetSplit:
    """:func:`build_split` over pools; shards come from ``client_pool`` if given."""
    labels, _ = pool
    rng = stream(seed, "split")
    if (labels < 0).any():
        raise ValueError("split pool must be fully labeled")
    n_classes = int(labels.max()) + 1
    if server_train_n % n_classes != 0:
        raise ValueError(
            f"server_train_n {server_train_n} not divisible by {n_classes} classes"
        )

    pools = _class_pools(labels, rng)
    per_class = server_train_n // n_classes
    for m, class_pool in enumerate(pools):
        if len(class_pool) < per_class:
            raise ValueError(f"class {m} has too few instances for the server split")
    server_train = np.concatenate([class_pool[:per_class] for class_pool in pools])
    remainder = np.concatenate([class_pool[per_class:] for class_pool in pools])
    remainder = remainder[rng.permutation(len(remainder))]

    if server_val_n > len(remainder):
        raise ValueError("not enough instances left for the validation split")
    server_val, remainder = remainder[:server_val_n], remainder[server_val_n:]

    if test_pool is None:
        if test_n > len(remainder):
            raise ValueError("not enough instances left for the test split")
        test, remainder = (pool, remainder[:test_n]), remainder[test_n:]
    else:
        test = (test_pool, np.arange(len(test_pool[0])))

    if client_pool is None:
        shard_pool, candidates = pool, remainder
    else:
        shard_pool, candidates = client_pool, np.arange(len(client_pool[0]))
    shards = [
        (shard_pool, candidates[rows])
        for rows in partition(
            shard_pool[0][candidates], n_clients, partition_mode, per_client, seed, alpha
        )
    ]

    parts = _take_all([(pool, server_train), (pool, server_val), test, *shards])
    return DatasetSplit(
        Collection(*parts[0]),
        Collection(*parts[1]),
        [Collection(X) for X, _ in parts[3:]],
        Collection(*parts[2]),
        [y for _, y in parts[3:]],
    )


def _take_all(requests):
    """(features, labels) for each (pool, positions) request, one take per pool."""
    by_pool: dict[int, tuple] = {}
    for i, (pool, positions) in enumerate(requests):
        by_pool.setdefault(id(pool), (pool, []))[1].append((i, positions))
    out: list = [None] * len(requests)
    for (labels, take), items in by_pool.values():
        sizes = [len(positions) for _, positions in items]
        rows = take(np.concatenate([positions for _, positions in items]))
        for (i, positions), X in zip(items, np.split(rows, np.cumsum(sizes)[:-1])):
            out[i] = (X, labels[positions])
    return out
