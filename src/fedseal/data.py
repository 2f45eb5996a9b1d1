"""Datasets: ingestion, client partitioning, augmentation.

A dataset is a pair of arrays: an (n, width) feature matrix of values in
[0, 1], stored as uint8 pixels (value pixel / 255) for images and as float32
otherwise, and n non-negative integer class labels.  Pixels become float32 a
block at a time, where they enter the network or augmentation.
:func:`load_split` carves one labeled pool into the four parts a run needs,
held by a :class:`DatasetSplit` and each gathered once: the server train,
server validation and test sets are each a labeled :class:`Collection`, and
each client shard is a plain read-only (n_k, width) feature matrix.  A shard's
true labels are kept in a read-only int64 array aligned with it, reachable
only through :meth:`DatasetSplit.hidden_labels`, which exists for correctness
metrics and the label-oracle baseline.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

IID = "iid"
DIRICHLET = "dirichlet"


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Collection:
    """Row-aligned (n, width) features and labels of one labeled collection.

    There is at least one row and every label is non-negative, so consumers
    need not check either.  Both arrays are read-only views; uint8 pixels
    stay uint8, and features of any other dtype are cast to float32 once, here.
    """

    def __init__(self, X, y):
        X = np.asarray(X)
        self.X = _frozen(X if X.dtype == np.uint8 else X.astype(np.float32, copy=False))
        self.y = _frozen(np.asarray(y, dtype=np.int64))
        if self.X.ndim != 2:
            raise ValueError(f"features must be an (n, width) matrix, got shape {self.X.shape}")
        if self.y.shape != (len(self),):
            raise ValueError(f"{self.y.size} labels for {len(self)} rows")
        if not len(self):
            raise ValueError("a collection needs at least one row")
        if (self.y < 0).any():
            raise ValueError(f"negative label {int(self.y.min())}: every row must be labeled")

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Disjoint server/validation/test collections and client shards for one run.

    Built only by :func:`load_split`, which freezes every shard and hidden
    label array as it gathers them.
    """

    server_train: Collection
    server_val: Collection
    client_train: list[np.ndarray]
    test: Collection
    _hidden_labels: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return 1 + int(max(c.y.max() for c in (self.server_train, self.server_val, self.test)))

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


def _read_idx(path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of one IDX file, shaped by the dims in its header.

    The header is ``magic``, whose low byte is the rank, then one big-endian
    uint32 per dim; the file must end exactly where the dims say.  The body
    is read into the array 1 MiB at a time, so even a gzipped file is held once.
    A ``.gz`` file that is cut short, fails its CRC or is not gzipped fails
    with its path.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    header, chunk = 4 * (1 + (magic & 0xFF)), 1 << 20
    try:
        with opener(path, "rb") as f:
            buf = f.read(header)
            if len(buf) < header:
                raise ValueError(f"{path}: truncated header at byte offset {len(buf) // 4 * 4}")
            got, *dims = struct.unpack(f">{header // 4}I", buf)
            if got != magic:
                raise ValueError(f"{path}: bad {kind} magic 0x{got:08x} at byte offset 0, "
                                 f"expected 0x{magic:08x}")
            expected = header + math.prod(dims)  # Python ints: no header can overflow it
            try:
                pixels = np.empty(expected - header, dtype=np.uint8)
            except (ValueError, MemoryError):  # no memory holds it: count the bytes there are
                pixels = np.empty(0, dtype=np.uint8)
            view, size = memoryview(pixels), header
            while n := f.readinto(view[size - header : size - header + chunk]):
                size += n
            while buf := f.read(chunk):
                size += len(buf)
    except (EOFError, gzip.BadGzipFile) as err:  # a cut, corrupt or unzipped .gz file
        raise ValueError(f"{path}: {err}") from None
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {size} "
                         f"(mismatch from byte offset {min(expected, size)})")
    return pixels.reshape(dims)


def ingest_idx(images_path, labels_path, image_shape=None) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label file pair (big-endian, standard magics).

    Returns (features, labels): the uint8 pixels as read, flattened row-major,
    one row per image.  Paths ending in ``.gz`` are decompressed
    transparently.  Given an ``image_shape`` (height, width), an images file
    whose header declares any other shape is rejected.
    """
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image")
    count, rows, cols = images.shape
    if image_shape is not None and (rows, cols) != tuple(image_shape):
        raise ValueError(f"{images_path}: images are {rows} x {cols}, but image_height x "
                         f"image_width is {image_shape[0]} x {image_shape[1]}")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label")
    if len(labels) != count:
        raise ValueError(f"{labels_path}: {len(labels)} labels but {images_path} has "
                         f"{count} images")
    return images.reshape(count, rows * cols), labels.astype(np.int64)


def ingest_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load ``label,f0,f1,...`` CSV into (float32 features, labels).

    Every row needs a non-negative integer label, and feature cells must be
    finite numbers in [0, 1]; a bad cell fails with its file and line.  Cells
    are parsed and checked as float64, then stored as float32.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "label" or any(
        name != f"f{i}" for i, name in enumerate(header[1:])
    ):
        raise ValueError(f"{path}: line 1: expected header 'label,f0,f1,...'")
    width = len(header) - 1

    features = np.empty((len(lines) - 1, width), dtype=np.float32)
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for row, line in enumerate(lines[1:]):
        line_no = row + 2
        cells = line.split(",")
        if len(cells) != width + 1:
            raise ValueError(
                f"{path}: line {line_no}: expected {width + 1} cells, got {len(cells)}"
            )
        if cells[0] == "":
            raise ValueError(f"{path}: line {line_no}: empty label, but every row "
                             "must be labeled")
        try:
            labels[row] = int(cells[0])
        except ValueError:
            raise ValueError(
                f"{path}: line {line_no}: non-integer label {cells[0]!r}"
            ) from None
        except OverflowError:
            raise ValueError(f"{path}: line {line_no}: label {cells[0]!r} out of range") from None
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


def _float_rows(X: np.ndarray) -> np.ndarray:
    """uint8 pixel rows as new float32 rows float32(pixel / 255.0); others as they are."""
    if X.dtype != np.uint8:
        return X
    rows = X.astype(np.float32)
    rows /= np.float32(255)
    return rows


def _stack(X, image_shape) -> np.ndarray:
    """(n, h, w) copy of an (n, width) batch in its float dtype; a vector row is 1 x width."""
    X = np.asarray(X)
    rows = _float_rows(X)  # uint8 pixels come back as new rows: no second copy
    X = rows.astype(np.result_type(rows.dtype, np.float32), copy=rows is X)
    h, w = (1, X.shape[-1]) if image_shape is None else image_shape
    if X.ndim != 2 or X.shape[1] != h * w:
        raise ValueError(f"augmentation expects an (n, {h * w}) batch, got shape {X.shape}")
    return X.reshape(len(X), h, w)


def _shift(imgs: np.ndarray, dy: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """out[r, i, j] = imgs[r, i + dy[r], j + dx[r]], and 0 where that is outside."""
    k, h, w = imgs.shape
    p = int(max(np.abs(dy).max(initial=0), np.abs(dx).max(initial=0)))
    padded = np.zeros((k, h + 2 * p, w + 2 * p), dtype=imgs.dtype)
    padded[:, p : p + h, p : p + w] = imgs
    windows = sliding_window_view(padded, (h, w), axis=(1, 2))
    return windows[np.arange(k), p + dy, p + dx]


# Each op turns a (k, h, w) stack of k rows, a vector row being 1 x width,
# with one draw from ``rng`` that holds the parameters of all k rows.


def _flip(imgs: np.ndarray, rng) -> np.ndarray:
    return imgs[:, :, ::-1]


def _crop(imgs: np.ndarray, rng) -> np.ndarray:
    """A same-size crop of each image zero-padded by 2 px."""
    return _shift(imgs, *(rng.integers(0, 5, size=(len(imgs), 2)) - 2).T)


def _rotate(imgs: np.ndarray, rng) -> np.ndarray:
    """Each row turned by U(-15, 15) degrees about its centre, bilinear, 0 outside.

    As ``ndimage.rotate(reshape=False, order=1, mode="constant")`` computes it,
    up to float64 rounding.
    """
    k, h, w = imgs.shape
    radians = np.deg2rad(rng.uniform(-15.0, 15.0, size=k))[:, None, None]
    c, s = np.cos(radians), np.sin(radians)
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


def _translate(imgs: np.ndarray, rng) -> np.ndarray:
    return _shift(imgs, *(-rng.integers(-3, 4, size=(len(imgs), 2))).T)


def _cutout(imgs: np.ndarray, rng, image: bool = True) -> np.ndarray:
    """Set a box of each row to 0.5: half the side each way masks ~25% of an
    image; a vector loses a quarter, its box corners having row 0."""
    k, h, w = imgs.shape
    mh, mw = (max(1, h // 2), max(1, w // 2)) if image else (1, max(1, w // 4))
    corner = rng.integers(0, [h - mh + 1, w - mw + 1], size=(k, 2))
    ys, xs = np.arange(h)[:, None] - corner[:, :1, None], np.arange(w) - corner[:, 1:, None]
    return np.where((ys >= 0) & (ys < mh) & (xs >= 0) & (xs < mw), 0.5, imgs)


def _contrast(imgs: np.ndarray, rng) -> np.ndarray:
    return 0.5 + (1.0 + rng.uniform(-0.4, 0.4, size=len(imgs)))[:, None, None] * (imgs - 0.5)


def _noise(imgs: np.ndarray, rng) -> np.ndarray:
    return imgs + rng.normal(0.0, 0.1, size=imgs.shape)


_IMAGE_OPS = (_flip, _crop, _rotate, _translate, _cutout, _contrast, _noise)
_VECTOR_OPS = (_noise, partial(_cutout, image=False), _contrast)


def augment_weak(X: np.ndarray, rng, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Mild transform of an (n, width) batch: flip + crop for images, light noise otherwise.

    Images draw a flip mask, ``rng.random(n)``, then the crop offsets;
    vectors draw one (n, width) block of N(0, 0.05) noise.  The batch keeps
    its float dtype (pixels: float32).
    """
    imgs = _stack(X, image_shape)
    n, h, w = imgs.shape
    if image_shape is None:
        imgs += rng.normal(0.0, 0.05, size=imgs.shape)
    else:
        flip = rng.random(n) < 0.5
        imgs[flip] = imgs[flip, :, ::-1]
        imgs = _crop(imgs, rng)
    return np.clip(imgs.reshape(n, h * w), 0.0, 1.0)


def augment_strong(X: np.ndarray, rng, image_shape: tuple[int, int] | None = None) -> np.ndarray:
    """Aggressive transform of an (n, width) batch: two ops per row from the pool.

    Image pool: flip, crop, rotate +-15 deg, translate +-3 px, cutout of 25%
    of the area to 0.5, contrast jitter +-0.4, Gaussian noise sigma 0.1.
    Without an image shape the geometric ops drop out and the pool is noise,
    contiguous-segment cutout and contrast jitter.  Pixels shifted in from
    outside the image are 0.  Both pools draw the same way: the (n, 2) op
    codes, then for each slot and each op in pool order one draw, made by
    the op function, holding the parameters of every row that picked it.
    Each op's result rounds to the batch's float dtype (pixels: float32).
    """
    imgs = _stack(X, image_shape)
    n, h, w = imgs.shape
    pool = _VECTOR_OPS if image_shape is None else _IMAGE_OPS
    ops = rng.integers(0, len(pool), size=(n, 2))
    for slot in range(2):
        for code, op in enumerate(pool):
            rows = np.flatnonzero(ops[:, slot] == code)
            if rows.size:
                imgs[rows] = op(imgs[rows], rng)
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
        missing = " and ".join(key for key in ("train_images", "train_labels")
                               if not getattr(self, key))
        if self.kind == "idx" and missing:
            raise ValueError(f"idx data needs a path for {missing}")
        if bool(self.test_images) != bool(self.test_labels):
            given, missing = (("test_images", "test_labels") if self.test_images
                              else ("test_labels", "test_images"))
            raise ValueError(f"{given} must come with {missing}: set both or neither")
        if self.kind == "synthetic":
            # idx and csv data learn their class count on load, and check there.
            iid = ("per_client",) if self.partition == IID else ()
            for name in ("server_train_n", *iid):
                if getattr(self, name) % self.n_classes:
                    raise ValueError(f"{name} must be divisible by n_classes = "
                                     f"{self.n_classes}, got {getattr(self, name)}")
        if self.kind == "csv" and not self.train_csv:
            raise ValueError("csv data needs a train_csv path")
        h, w = self.image_height, self.image_width
        if (h, w) != (0, 0) and min(h, w) < 1:
            bad = "image_height" if h < 1 else "image_width"
            raise ValueError(f"{bad} must be >= 1 for images (both 0 for vectors), got {h} x {w}")
        if self.kind == "idx" and self.image_shape is None:
            raise ValueError("kind = idx needs image_height and image_width, the images' shape")
        if self.kind == "synthetic" and h > 0 and self.n_features != h * w:
            raise ValueError(f"n_features = {self.n_features} must equal image_height x "
                             f"image_width = {h} x {w}")

    @property
    def image_shape(self) -> tuple[int, int] | None:
        if self.image_height > 0 and self.image_width > 0:
            return (self.image_height, self.image_width)
        return None


def load_split(cfg: DataConfig, n_clients: int, seed: int) -> DatasetSplit:
    """Materialize the configured dataset and carve the run split.

    The split is carved from labels alone (see :func:`_carve`); then the
    feature rows of each collection are gathered once.  Given a test file,
    the test set is ``test_n`` of its rows drawn at random, or the whole
    file in file order when ``test_n`` is 0 or covers it.
    """
    test_file = None
    if cfg.kind == "synthetic":
        # Row i of a blob pool has label i % n_classes.  Server/val/test rows
        # come from a core pool whose streams do not involve n_clients, so
        # those collections are identical whatever the client count; only the
        # client pool scales.  Both pools share one set of class centers.
        centers = stream(seed, "data-centers").uniform(
            0.2, 0.8, size=(cfg.n_classes, cfg.n_features)
        )
        y = np.arange(cfg.server_train_n + cfg.server_val_n + cfg.test_n) % cfg.n_classes
        shard_y = np.arange(n_clients * cfg.per_client, dtype=np.int64) % cfg.n_classes
        server, val, test, shards = _carve(y, cfg, n_clients, seed, cfg.test_n, shard_y)
        blobs = partial(_blob_rows, centers, spread=cfg.spread, pixels=bool(cfg.image_shape))
        parts = [*blobs(y, stream(seed, "data-core"), parts=[server, val, test]),
                 *blobs(shard_y, stream(seed, "data-clients"), parts=shards)]
    else:
        if cfg.kind == "idx":
            ingest = partial(ingest_idx, image_shape=cfg.image_shape)
            train_paths = (cfg.train_images, cfg.train_labels)
            test_paths = (cfg.test_images, cfg.test_labels)
        else:
            ingest, train_paths, test_paths = ingest_csv, (cfg.train_csv,), (cfg.test_csv,)
        X, y = ingest(*train_paths)
        if not len(y):
            raise ValueError(f"{train_paths[0]}: no rows, but the training pool needs at least one")
        if test_paths[0]:
            test_file = ingest(*test_paths)
            _check_test_file(*test_file, X, y, test_paths[0], test_paths[-1])
        if cfg.image_shape and X.shape[1] != np.prod(cfg.image_shape):
            raise ValueError(f"image_height x image_width = {cfg.image_height} x "
                             f"{cfg.image_width} does not fit {X.shape[1]} features")
        test_n = cfg.test_n if test_file is None else 0
        server, val, test, shards = _carve(y, cfg, n_clients, seed, test_n)
        shard_y = y
        parts = [X[rows] for rows in (server, val, test, *shards)]

    server_X, val_X, test_X, *shard_X = parts
    test_y = y[test]
    if test_file is not None:
        test_X, test_y = test_file
        if 0 < cfg.test_n < len(test_y):
            keep = stream(seed, "test").permutation(len(test_y))[: cfg.test_n]
            test_X, test_y = test_X[keep], test_y[keep]
    return DatasetSplit(
        Collection(server_X, y[server]),
        Collection(val_X, y[val]),
        [_frozen(X) for X in shard_X],
        Collection(test_X, test_y),
        [_frozen(shard_y[rows]) for rows in shards],
    )


def _check_test_file(test_X, test_y, X, y, features_path, labels_path) -> None:
    """Reject a test file that the model trained on pool (X, y) cannot score."""
    if test_X.shape[1] != X.shape[1]:
        raise ValueError(f"{features_path}: {test_X.shape[1]} features per row, but the "
                         f"training pool has {X.shape[1]}")
    if not len(test_y):
        raise ValueError(f"{features_path}: no rows, but a test file needs at least one")
    n_classes = int(y.max()) + 1
    if test_y.max() >= n_classes:
        raise ValueError(f"{labels_path}: label {int(test_y.max())} is not a class of the "
                         f"training pool, whose labels are 0..{n_classes - 1}")


def _carve(labels, cfg: DataConfig, n_clients: int, seed: int, test_n: int,
           shard_labels=None):
    """Row positions of a run split: server train, validation, test, shards.

    The server training set is class-balanced (equal count per class, as
    evenly divisible); validation and ``test_n`` test rows are random draws
    from the remainder.  Client shards come from :func:`partition` over what
    is left, or over all of ``shard_labels``, a separate client pool, when
    given; shard positions are then rows of that pool.
    """
    n_classes = int(np.max(labels)) + 1
    per_class, rest = divmod(cfg.server_train_n, n_classes)
    if rest:
        raise ValueError(
            f"server_train_n {cfg.server_train_n} not divisible by {n_classes} classes"
        )
    rng = stream(seed, "split")
    pools = _class_pools(labels, rng)
    for m, class_pool in enumerate(pools):
        if len(class_pool) < per_class:
            raise ValueError(f"class {m} has too few instances for the server split")
    server = np.concatenate([class_pool[:per_class] for class_pool in pools])
    remainder = np.concatenate([class_pool[per_class:] for class_pool in pools])
    remainder = remainder[rng.permutation(len(remainder))]

    if cfg.server_val_n > len(remainder):
        raise ValueError("not enough instances left for the validation split")
    val, remainder = remainder[: cfg.server_val_n], remainder[cfg.server_val_n :]
    if test_n > len(remainder):
        raise ValueError("not enough instances left for the test split")
    test, remainder = remainder[:test_n], remainder[test_n:]

    if shard_labels is None:
        shard_labels, candidates = labels, remainder
    else:
        candidates = np.arange(len(shard_labels))
    shards = partition(shard_labels[candidates], n_clients, cfg.partition, cfg.per_client,
                       seed, cfg.dirichlet_alpha)
    return server, val, test, [candidates[rows] for rows in shards]


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

_BLOB_CHUNK = 2**14


def _blob_rows(centers: np.ndarray, labels: np.ndarray, rng: np.random.Generator,
               spread: float, parts: list[np.ndarray], pixels: bool = False) -> list[np.ndarray]:
    """The feature rows at each of ``parts``' positions in a Gaussian-blob pool.

    Row i of the pool is x = clip(centers[labels[i]] + N(0, spread)), drawn
    from ``rng`` in row order in float64, kept as float32 or as the uint8
    ``pixels`` rint(255 x).  The pool is drawn in whole rows, about
    ``_BLOB_CHUNK`` values at a time, and only the requested rows are
    scattered into one array, returned as one view per part, so the whole
    pool is never held in memory beside them.
    """
    n, width = len(labels), centers.shape[1]
    sizes = [len(positions) for positions in parts]
    out = np.empty((sum(sizes), width), dtype=np.uint8 if pixels else np.float32)
    dest = np.full(n, -1)
    dest[np.concatenate(parts)] = np.arange(len(out))
    step = max(1, _BLOB_CHUNK // width)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = rng.normal(0.0, spread, size=(hi - lo, width))
        block += centers[labels[lo:hi]]
        np.clip(block, 0.0, 1.0, out=block)
        kept = dest[lo:hi] >= 0
        out[dest[lo:hi][kept]] = np.rint(255 * block[kept]) if pixels else block[kept]
    return np.split(out, np.cumsum(sizes)[:-1])


def synthetic_blobs(
    n_instances: int,
    n_classes: int,
    n_features: int,
    rng: np.random.Generator,
    spread: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian class blobs as (float32 features in [0, 1], labels)."""
    centers = rng.uniform(0.2, 0.8, size=(n_classes, n_features))
    labels = np.arange(n_instances) % n_classes
    return _blob_rows(centers, labels, rng, spread, [np.arange(n_instances)])[0], labels
