"""IDX-format dataset loading for the MNIST experiments.

Reads the four classic big-endian IDX files (optionally gzipped) and
validates magic numbers, dimensions, split sizes and label ranges.
Pixels stay the uint8 bytes of the files; `pixels_to_float` scales the
rows a minibatch or an evaluation chunk needs to float64 in [0, 1].
Nothing here downloads: the files are read from a local directory, and
`make_synthetic_fixture` writes a small dataset in the same layout.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

FILE_NAMES = (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)

DATA_DIR_ENV = "BLAQ_DATA_DIR"


@dataclass
class MnistDataset:
    """Flattened uint8 pixel rows and integer labels for both splits.

    The pixels stay bytes: real MNIST holds 55 MB of them, against
    439 MB as float64.  `pixels_to_float` converts the rows in use.
    """

    train_images: np.ndarray   # (n_train, 784) uint8
    train_labels: np.ndarray   # (n_train,) int64
    test_images: np.ndarray    # (n_test, 784) uint8
    test_labels: np.ndarray


def pixels_to_float(pixels):
    """uint8 pixel rows as float64 in [0, 1].

    Bit for bit `pixels / 255.0`, dividing in place so that only one
    float64 array of the rows' size is made.
    """
    out = pixels.astype(np.float64)
    out /= 255.0
    return out


def _stored(path):
    """The file that holds `path`: itself if it exists, else `path + ".gz"`
    if that exists, else None."""
    return next((p for p in (path, path + ".gz") if os.path.exists(p)), None)


def _read_idx(path, magic):
    """The payload of an IDX file (plain or gzipped) as a uint8 array
    shaped by its header, and the file it came from.  The header must
    carry `magic`, non-negative dimensions and the file's exact size."""
    found = _stored(path) or path
    try:
        with (gzip.open if found.endswith(".gz") else open)(found, "rb") as fh:
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:     # a truncated or corrupt .gz
        raise FormatError(f"{found}: {e}") from e
    ndim, kind = {IMAGE_MAGIC: (3, "image"), LABEL_MAGIC: (1, "label")}[magic]
    head = 4 * (ndim + 1)
    if len(raw) < head:
        raise FormatError(f"{found}: truncated header at offset {len(raw)}")
    got, *dims = struct.unpack(f">{ndim + 1}i", raw[:head])
    if got != magic:
        raise FormatError(f"{found}: bad {kind} magic {got} at offset 0 (expected {magic})")
    for i, dim in enumerate(dims):
        if dim < 0:
            raise FormatError(f"{found}: negative dimension {dim} at offset {4 + 4 * i}")
    expected = head + math.prod(dims)
    if len(raw) != expected:
        raise FormatError(f"{found}: expected {expected} bytes, got {len(raw)} (offset {min(len(raw), expected)})")
    return np.frombuffer(raw, dtype=np.uint8, offset=head).reshape(dims), found


def read_idx_images(path):
    """Parse an IDX3 image file into a (n, rows, cols) uint8 array."""
    return _read_idx(path, IMAGE_MAGIC)[0]


def read_idx_labels(path):
    """Parse an IDX1 label file into a (n,) uint8 array, range-checked."""
    labels, found = _read_idx(path, LABEL_MAGIC)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(f"{found}: label {labels[bad[0]]} out of range at offset {8 + int(bad[0])}")
    return labels


def load_mnist(data_dir, image_size=28):
    """Load the four split files from a directory.

    Images must be image_size x image_size; each split must hold at
    least one image, and as many labels as images.  Returns the images
    as flattened uint8 rows, the bytes of the files (see
    `pixels_to_float`).
    """
    paths = {name: os.path.join(data_dir, name) for name in FILE_NAMES}
    train_x = read_idx_images(paths[TRAIN_IMAGES])
    train_y = read_idx_labels(paths[TRAIN_LABELS])
    test_x = read_idx_images(paths[TEST_IMAGES])
    test_y = read_idx_labels(paths[TEST_LABELS])
    for name, arr in ((TRAIN_IMAGES, train_x), (TEST_IMAGES, test_x)):
        if arr.shape[1:] != (image_size, image_size):
            raise FormatError(f"{paths[name]}: image dims {arr.shape[1:]} != ({image_size}, {image_size})")
        if len(arr) == 0:
            raise FormatError(f"{paths[name]}: the split holds no images")
    if len(train_x) != len(train_y):
        raise FormatError(f"{data_dir}: train split count mismatch {len(train_x)} vs {len(train_y)}")
    if len(test_x) != len(test_y):
        raise FormatError(f"{data_dir}: test split count mismatch {len(test_x)} vs {len(test_y)}")

    def flat(x):
        return x.reshape(len(x), image_size * image_size)

    return MnistDataset(flat(train_x), train_y.astype(np.int64),
                        flat(test_x), test_y.astype(np.int64))


def dataset_present(data_dir):
    """True when all four files (possibly gzipped) exist."""
    if not data_dir or not os.path.isdir(data_dir):
        return False
    return all(_stored(os.path.join(data_dir, n)) for n in FILE_NAMES)


def default_data_dir():
    return os.environ.get(DATA_DIR_ENV, os.path.join(os.path.expanduser("~"), ".cache", "blaq-mnist"))


def _write_idx(path, magic, array):
    """Write a uint8 array as an IDX file: magic, dimensions, bytes."""
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{array.ndim + 1}i", magic, *array.shape))
        fh.write(array.tobytes())


def write_idx_images(path, images):
    """Write a uint8 (n, rows, cols) array as an IDX3 file."""
    _write_idx(path, IMAGE_MAGIC, images)


def write_idx_labels(path, labels):
    """Write a uint8 (n,) array as an IDX1 file."""
    _write_idx(path, LABEL_MAGIC, labels)


def make_synthetic_fixture(data_dir, n_train=100, n_test=50, seed=7, image_size=28):
    """Write a small synthetic dataset in the exact IDX layout.

    Each class is a fixed random template plus pixel noise, so a
    classifier can actually fit it; used by tests instead of the real
    corpus.
    """
    rng = np.random.default_rng(seed)
    templates = rng.integers(0, 200, size=(10, image_size, image_size))

    def split(n):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        noise = rng.integers(0, 56, size=(n, image_size, image_size))
        images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
        return images, labels

    os.makedirs(data_dir, exist_ok=True)
    train_x, train_y = split(n_train)
    test_x, test_y = split(n_test)
    write_idx_images(os.path.join(data_dir, TRAIN_IMAGES), train_x)
    write_idx_labels(os.path.join(data_dir, TRAIN_LABELS), train_y)
    write_idx_images(os.path.join(data_dir, TEST_IMAGES), test_x)
    write_idx_labels(os.path.join(data_dir, TEST_LABELS), test_y)
    return data_dir
