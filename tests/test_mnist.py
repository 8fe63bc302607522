"""IDX parsing, validation errors, and the synthetic fixture round trip."""

import gzip
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import blaq
from blaq.errors import FormatError
from blaq.mnist import (FILE_NAMES, IMAGE_MAGIC, LABEL_MAGIC, dataset_present,
                        load_mnist, make_synthetic_fixture, read_idx_images,
                        read_idx_labels, write_idx_images, write_idx_labels)


@pytest.fixture
def fixture_dir(tmp_path):
    return make_synthetic_fixture(str(tmp_path), n_train=100, n_test=50, seed=7)


class TestIdxFormat:
    def test_image_header_accepted(self, tmp_path):
        path = str(tmp_path / "imgs")
        images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        write_idx_images(path, images)
        back = read_idx_images(path)
        assert back.shape == (2, 28, 28)
        assert np.array_equal(back, images)
        with open(path, "rb") as fh:
            magic, n, rows, cols = struct.unpack(">iiii", fh.read(16))
        assert (magic, n, rows, cols) == (IMAGE_MAGIC, 2, 28, 28)

    def test_label_header_accepted(self, tmp_path):
        path = str(tmp_path / "labels")
        write_idx_labels(path, np.array([0, 9, 5], dtype=np.uint8))
        assert list(read_idx_labels(path)) == [0, 9, 5]

    def test_bad_image_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">iiii", 1234, 1, 28, 28))
            fh.write(bytes(28 * 28))
        with pytest.raises(FormatError) as exc:
            read_idx_images(path)
        assert "magic" in str(exc.value) and path in str(exc.value)

    def test_bad_label_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">ii", IMAGE_MAGIC, 1))
            fh.write(bytes(1))
        with pytest.raises(FormatError):
            read_idx_labels(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "short")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">iiii", IMAGE_MAGIC, 2, 28, 28))
            fh.write(bytes(28 * 28))     # one image missing
        with pytest.raises(FormatError) as exc:
            read_idx_images(path)
        assert "offset" in str(exc.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = str(tmp_path / "labels")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">ii", LABEL_MAGIC, 3))
            fh.write(bytes([1, 10, 2]))
        with pytest.raises(FormatError) as exc:
            read_idx_labels(path)
        assert "10" in str(exc.value)

    def test_gzip_transparent(self, tmp_path):
        plain = str(tmp_path / "labels")
        write_idx_labels(plain, np.array([3, 1, 4], dtype=np.uint8))
        with open(plain, "rb") as fh:
            payload = fh.read()
        os.remove(plain)
        with gzip.open(plain + ".gz", "wb") as fh:
            fh.write(payload)
        assert list(read_idx_labels(plain)) == [3, 1, 4]


class TestLoadDataset:
    def test_fixture_roundtrip(self, fixture_dir):
        ds = load_mnist(fixture_dir)
        assert ds.train_images.shape == (100, 784)
        assert ds.test_images.shape == (50, 784)
        assert ds.train_labels.shape == (100,)
        assert ds.train_images.dtype == np.float64
        assert ds.train_images.min() >= 0.0 and ds.train_images.max() <= 1.0
        assert set(np.unique(ds.train_labels)) <= set(range(10))

    def test_normalization_is_byte_over_255(self, fixture_dir):
        raw = read_idx_images(os.path.join(fixture_dir, FILE_NAMES[0]))
        ds = load_mnist(fixture_dir)
        assert np.array_equal(ds.train_images[0], raw[0].reshape(-1) / 255.0)

    def test_count_mismatch_rejected(self, fixture_dir):
        write_idx_labels(os.path.join(fixture_dir, FILE_NAMES[1]),
                         np.zeros(99, dtype=np.uint8))
        with pytest.raises(FormatError):
            load_mnist(fixture_dir)

    def test_wrong_dims_rejected(self, fixture_dir):
        write_idx_images(os.path.join(fixture_dir, FILE_NAMES[0]),
                         np.zeros((100, 14, 14), dtype=np.uint8))
        with pytest.raises(FormatError):
            load_mnist(fixture_dir)

    def test_dataset_present(self, fixture_dir, tmp_path):
        assert dataset_present(fixture_dir)
        assert not dataset_present(str(tmp_path / "nowhere"))
        assert not dataset_present(None)

    def test_fixture_deterministic(self, tmp_path):
        a = make_synthetic_fixture(str(tmp_path / "a"), seed=7)
        b = make_synthetic_fixture(str(tmp_path / "b"), seed=7)
        for name in FILE_NAMES:
            with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read()


def test_import_does_not_load_the_network_stack():
    # urllib.request pulls in ssl, http and email; only fetch_mnist needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(blaq.__file__)))
    probe = "import sys, blaq.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
