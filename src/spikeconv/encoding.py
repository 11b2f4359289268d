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


def _convolve(stack: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D convolution with zero padding of each image of a (G, H, W) stack,
    output size equals input size: one pad for the stack, then one
    matrix-vector product per image over its copied windows, the same
    product whichever stack the image is in."""
    k = kernel.shape[0]
    half = k // 2
    padded = np.pad(stack, ((0, 0), (half, half), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    # symmetric kernels make convolution and correlation identical; flip anyway
    flipped = kernel[::-1, ::-1].reshape(k * k, 1)
    out = np.empty(stack.shape)
    for j, image_windows in enumerate(windows):
        out[j] = (image_windows.reshape(-1, k * k) @ flipped).reshape(stack.shape[1:])
    return out


def dog_filter(image: np.ndarray, params: DoGParams = DoGParams()) -> np.ndarray:
    """Convolve an image with the on-off difference kernel (same-size output)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite values")
    return _convolve(image[None], dog_kernel(params))[0]


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
    """``encode_image_grid`` of every image, bit for bit, with one DoG kernel
    for all of them; training passes reuse the spike grids.

    ``images`` (a list, a generator or an (N, H, W) array) is read once and
    its images of one shape are encoded together: one finite check, one pad
    and, per image, one matrix-vector product over its copied windows (the
    only step whose bits come from BLAS, and the product the image alone
    gets); the peak normalization, rectification and latency code are array
    operations over the group. The grids come back in input order. The
    first image, in input order, that is not 2-D or holds a non-finite pixel
    is refused by its index, before any image is encoded.
    """
    kernel = dog_kernel(dog)
    groups = {}  # shape -> (input indices, images)
    bad = []  # (input index, message): a group's first bad image, or the one not 2-D
    for i, image in enumerate(images):
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            bad.append((i, f"expected a 2-D grayscale image, got shape {image.shape}"))
            break
        at, group = groups.setdefault(image.shape, ([], []))
        at.append(i)
        group.append(image)
    stacks = []
    for at, group in groups.values():
        stack = np.stack(group)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            bad.append((at[int(finite.argmin())], "image contains non-finite values"))
        stacks.append((at, stack))
    if bad:
        raise ValueError("image {}: {}".format(*min(bad)))
    grids = [None] * sum(len(at) for at, _ in stacks)
    for at, stack in stacks:
        for i, grid in zip(at, _latency_code(_convolve(stack, kernel), window)):
            grids[i] = grid
    return grids


def _latency_code(response: np.ndarray, window: CodingWindow) -> np.ndarray:
    """(G, 2, H, W) fire times of (G, H, W) DoG responses, which it
    overwrites: each image's response divided by its absolute peak (unless
    all zero), rectified into on and off channels, and every positive value
    v coded as ``t_start + (1 - v) * span``; the rest stay silent."""
    # in place: no temporary is larger than the response
    peak = np.abs(response).max(axis=(1, 2))
    response /= np.where(peak > 0, peak, 1.0)[:, None, None]  # x / 1.0 is x
    times = np.empty((len(response), 2) + response.shape[1:])
    np.maximum(0.0, response, out=times[:, 0])
    np.maximum(0.0, np.negative(response, out=response), out=times[:, 1])
    active = times > 0
    np.subtract(1.0, times, out=times)
    np.multiply(times, window.span, out=times)
    np.add(times, window.t_start, out=times)
    np.copyto(times, np.inf, where=~active)
    return times
