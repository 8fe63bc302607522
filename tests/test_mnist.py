"""IDX parsing, validation errors, and the synthetic fixture round trip."""

import gzip
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import blaq
from blaq.cli import main as cli_main
from blaq.errors import FormatError
from blaq.mnist import (FILE_NAMES, IMAGE_MAGIC, LABEL_MAGIC, dataset_present,
                        load_mnist, make_synthetic_fixture, pixels_to_float,
                        read_idx_images, read_idx_labels, write_idx_images,
                        write_idx_labels)

from helpers import same_bits


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

    @pytest.mark.parametrize("dims", [(-1, -1, 16), (1, -28, 28)])
    def test_negative_dimension_rejected(self, tmp_path, dims):
        path = str(tmp_path / "imgs")
        with open(path, "wb") as fh:
            fh.write(struct.pack(">iiii", IMAGE_MAGIC, *dims))
            fh.write(bytes(16))
        with pytest.raises(FormatError, match="negative dimension") as exc:
            read_idx_images(path)
        assert path in str(exc.value)

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

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_rejected(self, tmp_path, damage):
        plain = str(tmp_path / "labels")
        blob = gzip.compress(struct.pack(">ii", LABEL_MAGIC, 3) + bytes([3, 1, 4]) * 100)
        with open(plain + ".gz", "wb") as fh:
            fh.write(blob[:len(blob) // 2] if damage == "truncated"
                     else blob[:20] + bytes(len(blob) - 20))
        with pytest.raises(FormatError) as exc:
            read_idx_labels(plain)
        assert str(exc.value).startswith(plain + ".gz: ")


class TestLoadDataset:
    def test_fixture_roundtrip(self, fixture_dir):
        ds = load_mnist(fixture_dir)
        assert ds.train_images.shape == (100, 784)
        assert ds.test_images.shape == (50, 784)
        assert ds.train_labels.shape == (100,)
        assert set(np.unique(ds.train_labels)) <= set(range(10))

    def test_pixels_stay_the_bytes_of_the_files(self, fixture_dir):
        ds = load_mnist(fixture_dir)
        for images, name in ((ds.train_images, FILE_NAMES[0]), (ds.test_images, FILE_NAMES[2])):
            raw = read_idx_images(os.path.join(fixture_dir, name))
            assert images.dtype == np.uint8
            assert np.array_equal(images, raw.reshape(len(raw), 28 * 28))

    def test_normalization_is_byte_over_255(self, fixture_dir):
        raw = read_idx_images(os.path.join(fixture_dir, FILE_NAMES[0])).reshape(100, -1)
        every_byte = np.arange(256, dtype=np.uint8).reshape(2, 128)
        for pixels in (raw, raw[[3, 0, 7]], every_byte):
            out = pixels_to_float(pixels)
            assert out.dtype == np.float64
            assert same_bits(out, pixels / 255.0)
        assert pixels_to_float(every_byte).min() == 0.0
        assert pixels_to_float(every_byte).max() == 1.0

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

    @pytest.mark.parametrize("empty", ["n_train", "n_test"])
    def test_empty_split_is_a_data_error(self, tmp_path, capsys, empty):
        data_dir = make_synthetic_fixture(str(tmp_path / "data"), **{empty: 0})
        with pytest.raises(FormatError, match="holds no images"):
            load_mnist(data_dir)
        code = cli_main(["train-mnist", "--epochs", "1", "--data-dir", data_dir,
                         "--output-dir", str(tmp_path / "run")])
        assert code == 2
        name = FILE_NAMES[0] if empty == "n_train" else FILE_NAMES[2]
        assert capsys.readouterr().err.startswith(f"error: {os.path.join(data_dir, name)}")

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
    # a guard: the package downloads nothing, so importing the CLI must not
    # load urllib.request (which pulls in ssl, http and email)
    src = os.path.dirname(os.path.dirname(os.path.abspath(blaq.__file__)))
    probe = "import sys, blaq.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
