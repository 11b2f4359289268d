"""Image-to-spike conversion: on/off DoG filtering plus latency coding.

A grayscale image is convolved with a difference-of-Gaussians kernel to
emulate retinal on-off cells, split into positive (on) and negative (off)
channels, normalized into [0, 1], and each nonzero contrast value is turned
into a single spike whose latency decreases with the value: the strongest
contrasts spike first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DoGParams",
    "CodingWindow",
    "gaussian_kernel",
    "dog_kernel",
    "dog_filter",
    "split_channels",
    "encode_image_grid",
    "encode_dataset",
]


@dataclass(frozen=True)
class DoGParams:
    """Difference-of-Gaussians filter parameters.

    ``center`` and ``surround`` are the variances of the two Gaussians
    (defaults 1.0 / 4.0, i.e. std 1 and 2); ``size`` is the odd kernel side.
    """

    size: int = 7
    center: float = 1.0
    surround: float = 4.0

    def __post_init__(self):
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"DoG size must be odd and >= 1, got {self.size}")
        if not (0 < self.center < self.surround < np.inf):
            raise ValueError(
                f"need 0 < center < surround < inf, got {self.center}, {self.surround}"
            )


@dataclass(frozen=True)
class CodingWindow:
    """Time range [t_start, t_end] of one sample presentation."""

    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        if not -np.inf < self.t_start < self.t_end < np.inf:
            raise ValueError(f"need finite t_start < t_end, got {self.t_start}, {self.t_end}")

    @property
    def span(self) -> float:
        return self.t_end - self.t_start


def gaussian_kernel(size: int, variance: float) -> np.ndarray:
    """Sum-normalized centered 2-D Gaussian on the integer grid [-s//2, s//2]."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    half = size // 2
    u = np.arange(-half, half + 1, dtype=np.float64)
    g1 = np.exp(-(u * u) / (2.0 * variance))
    k = np.outer(g1, g1)
    return k / k.sum()


def dog_kernel(params: DoGParams) -> np.ndarray:
    """Center-minus-surround difference kernel; entries sum to zero."""
    return gaussian_kernel(params.size, params.center) - gaussian_kernel(
        params.size, params.surround
    )


def _conv2d_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D convolution with zero padding, output size equals input size."""
    k = kernel.shape[0]
    half = k // 2
    padded = np.pad(image, half, mode="constant")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    # symmetric kernels make convolution and correlation identical; flip anyway
    flipped = kernel[::-1, ::-1]
    # one matrix-vector product over the copied windows
    return (windows.reshape(-1, k * k) @ flipped.reshape(k * k, 1)).reshape(image.shape)


def _filter(image, kernel: np.ndarray, where: str = "") -> np.ndarray:
    """``_conv2d_same`` of a finite 2-D image, read as float64; ``where``
    prefixes the message that refuses any other."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"{where}expected a 2-D grayscale image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError(f"{where}image contains non-finite values")
    return _conv2d_same(image, kernel)


def dog_filter(image: np.ndarray, params: DoGParams = DoGParams()) -> np.ndarray:
    """Convolve an image with the on-off difference kernel (same-size output)."""
    return _filter(image, dog_kernel(params))


def split_channels(dog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectify a DoG response into (on, off) channels."""
    dog = np.asarray(dog, dtype=np.float64)
    return np.maximum(0.0, dog), np.maximum(0.0, -dog)


def encode_image_grid(
    image: np.ndarray,
    params: DoGParams = DoGParams(),
    window: CodingWindow = CodingWindow(),
) -> np.ndarray:
    """Encode an image into a (2, H, W) fire-time grid (+inf = no spike).

    Channel 0 is on-center, channel 1 off-center. Each image's channels are
    jointly normalized by the maximum absolute DoG response so values land
    in [0, 1] (skipped for an all-zero response). The image is
    ``encode_dataset``'s dataset of one.
    """
    return encode_dataset([image], params, window)[0]


def encode_dataset(images, dog: DoGParams, window: CodingWindow) -> list[np.ndarray]:
    """``encode_image_grid`` of every image, with one DoG kernel for all of
    them; training passes reuse the spike grids. An image that is not 2-D or
    holds a non-finite pixel is refused by its index."""
    kernel = dog_kernel(dog)
    grids = []
    for i, image in enumerate(images):
        response = _filter(image, kernel, f"image {i}: ")
        peak = np.max(np.abs(response))
        if peak > 0:
            response = response / peak
        on, off = split_channels(response)
        values = np.stack([on, off])
        times = np.full(values.shape, np.inf)
        active = values > 0
        times[active] = window.t_start + (1.0 - values[active]) * window.span
        grids.append(times)
    return grids
