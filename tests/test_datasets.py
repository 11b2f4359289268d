import re
import struct

import numpy as np
import pytest

from spikeconv.datasets import load_idx, load_image_dir, load_split_list
from spikeconv.images import bilinear_resize, read_pnm, to_grayscale, write_pgm, write_ppm

from oracles import naive_bilinear


def _write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801):
    n, h, w = images.shape
    ip = tmp_path / "imgs.idx3"
    lp = tmp_path / "labs.idx1"
    with open(ip, "wb") as f:
        f.write(struct.pack(">4i", image_magic, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">2i", label_magic, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return ip, lp


class TestIdx:
    def test_crafted_pair_exact_values(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 1, 2] = 128
        ip, lp = _write_idx_pair(tmp_path, images, [4, 9])
        ds = load_idx(ip, lp)
        assert ds.images.shape == (2, 3, 3)
        assert ds.images[0, 0, 0] == 1.0
        assert ds.images[0, 1, 1] == 0.0
        assert ds.images[1, 1, 2] == pytest.approx(128 / 255)
        assert list(ds.labels) == [4, 9]

    def test_bad_image_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                 image_magic=0x801)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                 label_magic=0x803)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, _ = _write_idx_pair(tmp_path, images, [0, 1])
        lp = tmp_path / "short.idx1"
        with open(lp, "wb") as f:
            f.write(struct.pack(">2i", 0x801, 1))
            f.write(bytes([3]))
        with pytest.raises(ValueError, match="count"):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip = tmp_path / "trunc.idx3"
        with open(ip, "wb") as f:
            f.write(struct.pack(">4i", 0x803, 2, 4, 4))
            f.write(bytes(10))
        _, lp = _write_idx_pair(tmp_path, np.zeros((2, 4, 4), dtype=np.uint8), [0, 1])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("count, rows, cols", [(-1, 2, 2), (1, -2, 2), (1, 2, -2)])
    def test_negative_image_header_size_rejected(self, tmp_path, count, rows, cols):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with open(ip, "wb") as f:
            f.write(struct.pack(">4i", 0x803, count, rows, cols))
            f.write(bytes(4))
        with pytest.raises(ValueError, match=re.escape(
                f"{ip}: negative size in IDX header (count {count}, rows {rows}, cols {cols})")):
            load_idx(ip, lp)

    def test_negative_label_count_rejected(self, tmp_path):
        ip, lp = _write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with open(lp, "wb") as f:
            f.write(struct.pack(">2i", 0x801, -1))
            f.write(bytes(1))
        with pytest.raises(ValueError, match=re.escape(f"{lp}: negative count -1")):
            load_idx(ip, lp)

    def test_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 4, 4)).astype(np.uint8)
        ip, lp = _write_idx_pair(tmp_path, images, rng.integers(0, 10, 5))
        ds = load_idx(ip, lp)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


class TestPnm:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.round(rng.random((6, 5)) * 255) / 255
        p = tmp_path / "a.pgm"
        write_pgm(p, img)
        back = read_pnm(p)
        assert np.allclose(back, img, atol=1e-12)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = np.round(rng.random((4, 3, 3)) * 255) / 255
        p = tmp_path / "a.ppm"
        write_ppm(p, img)
        assert np.allclose(read_pnm(p), img, atol=1e-12)

    def test_ascii_variants_and_comments(self, tmp_path):
        p = tmp_path / "a2.pgm"
        p.write_bytes(b"P2\n# comment line\n2 2\n255\n0 255\n128 64\n")
        img = read_pnm(p)
        assert img.shape == (2, 2)
        assert img[0, 1] == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="magic"):
            read_pnm(p)

    def test_truncated_binary_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pnm(p)

    @pytest.mark.parametrize("data", [b"P5\n-2 2\n255\n" + bytes(4), b"P5\n0 3\n255\n",
                                      b"P5\n3 0\n255\n", b"P2\n2 -1\n255\n0 1\n"])
    def test_non_positive_size_rejected(self, tmp_path, data):
        p = tmp_path / "s.pgm"
        p.write_bytes(data)
        with pytest.raises(ValueError, match="width and height must be >= 1"):
            read_pnm(p)

    @pytest.mark.parametrize("data", [b"P2\n2 1\n255\n999 0\n", b"P3\n1 1\n100\n0 101 0\n",
                                      b"P2\n1 1\n255\n-3\n", b"P5\n1 1\n100\n\xc8"])
    def test_sample_outside_maxval_rejected(self, tmp_path, data):
        p = tmp_path / "v.pgm"
        p.write_bytes(data)
        with pytest.raises(ValueError, match=r"sample values must lie in \[0, "):
            read_pnm(p)

    def test_grayscale_average(self):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [0.3, 0.6, 0.9]
        assert to_grayscale(img)[0, 0] == pytest.approx(0.6)


class TestBilinear:
    def test_exact_two_x_downscale_matches_pixel_loop_oracle(self):
        rng = np.random.default_rng(3)
        img = rng.random((50, 32))
        got = bilinear_resize(img, 25, 16)
        want = naive_bilinear(img, 25, 16)
        assert np.allclose(got, want, atol=1e-12)

    def test_upscale_matches_oracle(self):
        rng = np.random.default_rng(4)
        img = rng.random((7, 9))
        assert np.allclose(bilinear_resize(img, 13, 20), naive_bilinear(img, 13, 20),
                           atol=1e-12)

    def test_identity_resize_is_passthrough(self):
        rng = np.random.default_rng(5)
        img = rng.random((8, 8))
        assert np.array_equal(bilinear_resize(img, 8, 8), img)


class TestImageDir:
    def _make_tree(self, tmp_path):
        for cname, value in (("cats", 100), ("dogs", 200)):
            d = tmp_path / cname
            d.mkdir()
            img = np.full((4, 4), value / 255.0)
            write_pgm(d / "a.pgm", img)
        return tmp_path

    def test_two_classes_sorted_labels(self, tmp_path):
        ds = load_image_dir(self._make_tree(tmp_path))
        assert ds.class_names == ["cats", "dogs"]
        assert list(ds.labels) == [0, 1]
        assert ds.images.shape == (2, 4, 4)

    def test_resize_applied(self, tmp_path):
        ds = load_image_dir(self._make_tree(tmp_path), target_size=(8, 6))
        assert ds.images.shape == (2, 8, 6)

    def test_unreadable_skipped_with_warning(self, tmp_path):
        root = self._make_tree(tmp_path)
        (root / "cats" / "junk.pgm").write_bytes(b"not an image")
        with pytest.warns(UserWarning, match="skipping"):
            ds = load_image_dir(root)
        assert len(ds) == 2

    def test_empty_class_rejected(self, tmp_path):
        root = self._make_tree(tmp_path)
        (root / "empty").mkdir()
        with pytest.raises(ValueError, match="no readable images"):
            load_image_dir(root)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            load_image_dir(tmp_path / "nope")

    def test_split_list(self, tmp_path):
        root = self._make_tree(tmp_path)
        lst = tmp_path / "train.txt"
        lst.write_text("cats/a.pgm 0\ndogs/a.pgm 1\n")
        ds = load_split_list(root, lst)
        assert list(ds.labels) == [0, 1]
        bad = tmp_path / "bad.txt"
        bad.write_text("cats/a.pgm zero\n")
        with pytest.raises(ValueError, match="bad label"):
            load_split_list(root, bad)

    def test_deterministic_order(self, tmp_path):
        root = self._make_tree(tmp_path)
        a = load_image_dir(root)
        b = load_image_dir(root)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
