"""IDX-format dataset loading for the MNIST experiments.

Reads the four classic big-endian IDX files (optionally gzipped) and
validates magic numbers, dimensions, split sizes and label ranges.
Pixels stay the uint8 bytes of the files; `pixels_to_float` scales the
rows a minibatch or an evaluation chunk needs to float64 in [0, 1].  An
optional fetch step downloads the files from a caller-supplied mirror;
nothing here hard-codes a network dependency.
"""

from __future__ import annotations

import gzip
import os
import struct
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


def _read_bytes(path):
    if path.endswith(".gz") or not os.path.exists(path):
        gz = path if path.endswith(".gz") else path + ".gz"
        if os.path.exists(gz):
            with gzip.open(gz, "rb") as fh:
                return fh.read(), gz
    with open(path, "rb") as fh:
        return fh.read(), path


def read_idx_images(path):
    """Parse an IDX3 image file into a (n, rows, cols) uint8 array."""
    raw, path = _read_bytes(path)
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    magic, n, rows, cols = struct.unpack(">iiii", raw[:16])
    if magic != IMAGE_MAGIC:
        raise FormatError(f"{path}: bad image magic {magic} at offset 0 (expected {IMAGE_MAGIC})")
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)} (offset {min(len(raw), expected)})")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows, cols)


def read_idx_labels(path):
    """Parse an IDX1 label file into a (n,) uint8 array, range-checked."""
    raw, path = _read_bytes(path)
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    magic, n = struct.unpack(">ii", raw[:8])
    if magic != LABEL_MAGIC:
        raise FormatError(f"{path}: bad label magic {magic} at offset 0 (expected {LABEL_MAGIC})")
    expected = 8 + n
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)} (offset {min(len(raw), expected)})")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(f"{path}: label {labels[bad[0]]} out of range at offset {8 + int(bad[0])}")
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
    return all(
        os.path.exists(os.path.join(data_dir, n)) or os.path.exists(os.path.join(data_dir, n) + ".gz")
        for n in FILE_NAMES
    )


def default_data_dir():
    return os.environ.get(DATA_DIR_ENV, os.path.join(os.path.expanduser("~"), ".cache", "blaq-mnist"))


def fetch_mnist(data_dir, base_url, timeout=60):
    """Download any missing split files (gzipped) from a mirror URL."""
    import urllib.request   # loads ssl/http/email; only a download needs it
    os.makedirs(data_dir, exist_ok=True)
    for name in FILE_NAMES:
        plain = os.path.join(data_dir, name)
        gz = plain + ".gz"
        if os.path.exists(plain) or os.path.exists(gz):
            continue
        url = base_url.rstrip("/") + "/" + name + ".gz"
        with urllib.request.urlopen(url, timeout=timeout) as resp, open(gz, "wb") as out:
            out.write(resp.read())
    return data_dir


def write_idx_images(path, images):
    """Write a uint8 (n, rows, cols) array as an IDX3 file."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a uint8 (n,) array as an IDX1 file."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABEL_MAGIC, len(labels)))
        fh.write(labels.tobytes())


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
