import numpy as np
import pytest

from spikeconv import (
    CodingWindow,
    DoGParams,
    decode_grid,
    dog_filter,
    encode_dataset,
    encode_image_grid,
    gaussian_kernel,
    split_channels,
)
from spikeconv.encoding import dog_kernel

from oracles import naive_conv2d_same


class TestGaussianKernel:
    def test_k1_is_identity(self):
        assert np.allclose(gaussian_kernel(1, 2.5), [[1.0]])

    def test_normalization(self):
        k = gaussian_kernel(7, 1.0)
        assert abs(k.sum() - 1.0) < 1e-12

    def test_central_symmetry(self):
        k = gaussian_kernel(7, 1.0)
        assert k[0, 0] == k[6, 6]
        assert np.allclose(k, k[::-1, ::-1])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gaussian_kernel(4, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(-3, 1.0)
        with pytest.raises(ValueError):
            gaussian_kernel(7, 0.0)


class TestDogFilter:
    def test_zero_image_maps_to_zero(self):
        assert np.max(np.abs(dog_filter(np.zeros((10, 10))))) == 0.0

    def test_constant_image_interior_maps_to_zero(self):
        # the difference kernel sums to zero, so full-coverage (interior)
        # responses vanish; zero padding leaves partial-coverage borders
        img = np.full((10, 10), 0.37)
        out = dog_filter(img)
        assert np.max(np.abs(out[3:-3, 3:-3])) < 1e-12

    def test_impulse_reproduces_kernel(self):
        img = np.zeros((15, 15))
        img[7, 7] = 1.0
        out = dog_filter(img)
        kern = dog_kernel(DoGParams())
        # convolution with an interior impulse stamps the flipped kernel,
        # which equals the kernel itself by symmetry
        assert np.allclose(out[4:11, 4:11], kern, atol=1e-12)

    def test_ramp_matches_nested_loop_oracle(self):
        ramp = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        out = dog_filter(ramp)
        ref = naive_conv2d_same(ramp, dog_kernel(DoGParams()))
        assert np.allclose(out, ref, atol=1e-12)
        # frozen oracle values
        assert out[0, 0] == pytest.approx(-0.009945077387324018, abs=1e-12)
        assert out[15, 15] == pytest.approx(0.12955208369752452, abs=1e-12)
        assert abs(out[8, 8]) < 1e-15  # DoG of a locally linear patch vanishes
        assert out.sum() == pytest.approx(8.983808755131392, abs=1e-9)

    def test_rejects_non_finite(self):
        img = np.zeros((5, 5))
        img[2, 2] = np.nan
        with pytest.raises(ValueError):
            dog_filter(img)


class TestSplitChannels:
    def test_positive_goes_on(self):
        on, off = split_channels(np.array([[0.5]]))
        assert on[0, 0] == 0.5 and off[0, 0] == 0.0

    def test_negative_goes_off(self):
        on, off = split_channels(np.array([[-0.3]]))
        assert on[0, 0] == 0.0 and off[0, 0] == 0.3

    def test_zero_silent_on_both(self):
        on, off = split_channels(np.array([[0.0]]))
        assert on[0, 0] == 0.0 and off[0, 0] == 0.0

    def test_exclusive(self):
        rng = np.random.default_rng(3)
        on, off = split_channels(rng.normal(size=(20, 20)))
        assert not np.any((on > 0) & (off > 0))


class TestEncodeLatency:
    """The latency code t = t_start + (1 - value) * span, seen through the grid."""

    W = CodingWindow(0.2, 0.9)

    def _values(self, image):
        """Normalized on/off contrasts, the values the latency code receives."""
        dog = dog_filter(image)
        return np.stack(split_channels(dog / np.max(np.abs(dog))))

    def test_max_value_spikes_at_start(self):
        image = np.random.default_rng(13).random((12, 12))
        grid = encode_image_grid(image, window=self.W)
        assert grid.min() == self.W.t_start
        assert np.array_equal(grid == self.W.t_start, self._values(image) == 1.0)

    def test_quarter_value(self):
        # impulses of height 1 and 1/4 whose DoG footprints do not overlap
        image = np.zeros((15, 15))
        image[3, 3], image[11, 11] = 1.0, 0.25
        grid = encode_image_grid(image)
        assert grid[0, 3, 3] == 0.0
        assert grid[0, 11, 11] == pytest.approx(0.75)

    def test_zero_emits_nothing(self):
        assert np.all(np.isinf(encode_image_grid(np.zeros((9, 9)))))
        image = np.zeros((15, 15))
        image[7, 7] = 1.0
        grid = encode_image_grid(image)
        # zero contrast stays silent in both channels
        assert np.array_equal(np.isinf(grid), self._values(image) == 0.0)
        assert np.all(np.isinf(grid[:, :4, :])) and np.all(np.isinf(grid[:, 11:, :]))

    def test_rejects_out_of_range(self):
        # non-finite pixels are refused; any finite image, however large or
        # negative, is normalized so every spike lands inside the window
        for bad in (np.nan, np.inf, -np.inf):
            image = np.zeros((7, 7))
            image[3, 3] = bad
            with pytest.raises(ValueError):
                encode_image_grid(image)
        image = np.random.default_rng(14).normal(scale=1e6, size=(12, 12))
        times = encode_image_grid(image, window=self.W)
        finite = times[np.isfinite(times)]
        assert finite.size and np.all((finite >= self.W.t_start) & (finite <= self.W.t_end))

    def test_monotone(self):
        image = np.random.default_rng(15).random((12, 12))
        grid = encode_image_grid(image, window=self.W)
        values = self._values(image)
        active = values > 0
        order = np.argsort(values[active], kind="stable")
        v, t = values[active][order], grid[active][order]
        assert np.all(np.diff(v) > 0)  # distinct contrasts
        assert np.all(np.diff(t) < 0)  # larger values spike earlier

    def test_decode_inverts_encoding(self):
        image = np.random.default_rng(16).random((12, 12))
        grid = encode_image_grid(image, window=self.W)
        back = decode_grid(grid, self.W.t_start, self.W.t_end)
        assert np.max(np.abs(back - self._values(image))) < 1e-12


class TestEncodeImage:
    def test_blank_image_is_silent(self):
        assert np.all(encode_image_grid(np.zeros((9, 9))) == np.inf)

    def test_times_inside_window(self):
        rng = np.random.default_rng(11)
        w = CodingWindow(0.2, 0.9)
        grid = encode_image_grid(rng.random((12, 12)), window=w)
        times = grid[np.isfinite(grid)]
        assert times.size
        assert np.all((w.t_start <= times) & (times <= w.t_end))

    def test_channel_exclusivity(self):
        rng = np.random.default_rng(12)
        grid = encode_image_grid(rng.random((10, 10)))
        assert np.all(np.isfinite(grid).sum(axis=0) <= 1)

    def test_fixed_image_matches_composition_oracle(self):
        # independent composition: nested-loop convolution, rectify,
        # normalize by the absolute peak, latency-code
        img = (np.arange(64, dtype=float).reshape(8, 8) % 7) / 6.0
        dog = naive_conv2d_same(img, dog_kernel(DoGParams()))
        peak = np.abs(dog).max()
        want = {}
        for y in range(8):
            for x in range(8):
                v = dog[y, x] / peak
                if v > 0:
                    want[(0, y, x)] = 1.0 - v
                elif v < 0:
                    want[(1, y, x)] = 1.0 + v

        grid = encode_image_grid(img)
        got = {site: grid[site] for site in zip(*np.nonzero(np.isfinite(grid)))}
        assert len(got) == len(want) == 64  # frozen
        assert got.keys() == want.keys()
        for site, t in want.items():
            assert abs(got[site] - t) < 1e-12
        # the first spike in (time, map, y, x) order
        assert grid.min() == 0.0
        assert np.unravel_index(np.argmin(grid), grid.shape) == (0, 6, 6)
        assert sum(got.values()) == pytest.approx(41.264039689891604, abs=1e-9)


class TestDoGParams:
    def test_rejects_even_size(self):
        with pytest.raises(ValueError):
            DoGParams(size=6)

    def test_rejects_center_not_smaller(self):
        with pytest.raises(ValueError):
            DoGParams(center=4.0, surround=1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CodingWindow(1.0, 1.0)


def _reference_encode(images, dog, window):
    """The per-image loop ``encode_dataset`` replaced, which it must match bit
    for bit, refusals included: each image filtered alone by one
    matrix-vector product over its copied windows, normalized by its peak,
    rectified and latency-coded."""
    kernel = dog_kernel(dog)
    k = kernel.shape[0]
    grids = []
    for i, image in enumerate(images):
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise ValueError(f"image {i}: expected a 2-D grayscale image, got shape {image.shape}")
        if not np.all(np.isfinite(image)):
            raise ValueError(f"image {i}: image contains non-finite values")
        windows = np.lib.stride_tricks.sliding_window_view(np.pad(image, k // 2), (k, k))
        flipped = kernel[::-1, ::-1]
        response = (windows.reshape(-1, k * k) @ flipped.reshape(k * k, 1)).reshape(image.shape)
        peak = np.max(np.abs(response))
        if peak > 0:
            response = response / peak
        values = np.stack([np.maximum(0.0, response), np.maximum(0.0, -response)])
        times = np.full(values.shape, np.inf)
        active = values > 0
        times[active] = window.t_start + (1.0 - values[active]) * window.span
        grids.append(times)
    return grids


def _encoder_cases():
    """(name, images): every way ``encode_dataset`` groups and reads images."""
    rng = np.random.default_rng(31)
    strokes = [np.clip(rng.normal(0.0, 1.0, (28, 28)), 0.0, None) * (rng.random((28, 28)) < 0.3)
               for _ in range(24)]
    for blank in (0, 11, 23):
        strokes[blank] = np.zeros((28, 28))
    ragged = [rng.integers(0, 256, (9, 9), dtype=np.uint8), np.zeros((5, 7)),
              rng.random((1, 1)), rng.random((12, 3)) * 1e-300,
              rng.standard_normal((28, 28)) * 1e300, rng.random((28, 28)),
              rng.random((9, 9)), np.zeros((1, 1)), rng.random((5, 7)) - 0.5]
    return [
        ("same-shape batch", strokes),
        ("uint8 batch", [rng.integers(0, 256, (10, 12), dtype=np.uint8) for _ in range(21)]),
        ("1x1", [rng.random((1, 1))]),
        ("ragged", ragged),
        ("ragged nested lists", [image.tolist() for image in ragged[:4]]),
        ("(N, H, W) array", np.stack(strokes)),
        ("(N, H, W) uint8 array", rng.integers(0, 256, (20, 6, 6), dtype=np.uint8)),
    ]


class TestEncodeDataset:
    @pytest.mark.parametrize("case", _encoder_cases(), ids=lambda case: case[0])
    @pytest.mark.parametrize("dog, window", [(DoGParams(), CodingWindow()),
                                             (DoGParams(11, 0.5, 3.0), CodingWindow(0.2, 2.0))])
    def test_bitwise_the_per_image_loop(self, case, dog, window):
        _, images = case
        want = _reference_encode(images, dog, window)
        for got in (encode_dataset(images, dog, window),
                    encode_dataset((image for image in images), dog, window)):
            assert isinstance(got, list) and len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

    def test_equals_each_image_encoded_alone_bit_for_bit(self):
        # one kernel for the dataset, the same bits as one kernel per image:
        # ragged sizes, uint8 and float images, a blank one, tiny and huge scales
        rng = np.random.default_rng(13)
        images = [rng.integers(0, 256, (9, 9), dtype=np.uint8), np.zeros((5, 7)),
                  rng.random((1, 1)), rng.random((12, 3)) * 1e-300,
                  rng.standard_normal((28, 28)) * 1e300, rng.random((28, 28))]
        for dog, window in ((DoGParams(), CodingWindow()),
                            (DoGParams(11, 0.5, 3.0), CodingWindow(0.2, 2.0))):
            grids = encode_dataset(images, dog, window)
            assert len(grids) == len(images)
            for got, image in zip(grids, images):
                want = encode_image_grid(image, dog, window)
                assert got.tobytes() == want.tobytes()
        assert encode_dataset([], DoGParams(), CodingWindow()) == []
        assert encode_dataset(iter([]), DoGParams(), CodingWindow()) == []

    def test_bad_image_named_by_its_index(self):
        blank = [np.zeros((4, 4)) for _ in range(5)]
        nan = np.zeros((4, 4))
        nan[1, 2] = np.nan
        with pytest.raises(ValueError, match="^image 5: image contains non-finite values$"):
            encode_dataset(blank + [nan], DoGParams(), CodingWindow())
        with pytest.raises(ValueError, match=r"^image 2: expected a 2-D grayscale image, "
                                             r"got shape \(2, 4, 4\)$"):
            encode_dataset(blank[:2] + [np.zeros((2, 4, 4))] + blank, DoGParams(), CodingWindow())

    @pytest.mark.parametrize("bad_at", [
        {2: "nan", 4: "inf"},             # first bad in the group seen first
        {5: "nan", 3: "-inf"},            # first bad in the group seen second
        {6: "3-D", 4: "nan"},             # a non-finite image before a 3-D one
        {1: "3-D", 3: "nan"},             # a 3-D image before a non-finite one
        {0: "1-D", 7: "nan"},
        {7: "inf"},                       # the last image
    ])
    def test_bad_images_across_shape_groups_named_like_the_loop(self, bad_at):
        # images of three shapes, interleaved; every refusal is the per-image
        # loop's, naming the first bad image in input order
        shapes = [(4, 4), (5, 3), (4, 4), (6, 6), (5, 3), (4, 4), (6, 6), (5, 3)]
        images = [np.ones(shape) for shape in shapes]
        for at, kind in bad_at.items():
            if kind == "3-D":
                images[at] = np.ones((2,) + shapes[at])
            elif kind == "1-D":
                images[at] = np.ones(3)
            else:
                images[at][1, 1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
        with pytest.raises(ValueError) as want:
            _reference_encode(images, DoGParams(), CodingWindow())
        assert str(want.value).startswith(f"image {min(bad_at)}: ")
        for source in (images, iter(images)):
            with pytest.raises(ValueError) as got:
                encode_dataset(source, DoGParams(), CodingWindow())
            assert str(got.value) == str(want.value)
