"""Minimal image utilities: PGM/PPM codec, grayscale, bilinear resize."""

from __future__ import annotations

import numpy as np

__all__ = ["read_pnm", "write_pgm", "write_ppm", "to_grayscale", "bilinear_resize"]


def _read_tokens(data: bytes, count: int, pos: int):
    """Read whitespace/comment-separated ASCII header tokens."""
    tokens = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos:pos + 1].isspace():
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PNM header")
        tokens.append(data[start:pos])
    return tokens, pos


def read_pnm(path) -> np.ndarray:
    """Decode a PGM/PPM file (P2/P3 ASCII or P5/P6 binary, maxval <= 255).

    Returns float64 in [0, 1]: (H, W) for grayscale, (H, W, 3) for color.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 2:
        raise ValueError(f"{path}: not a PNM file")
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
    (width_b, height_b, maxval_b), pos = _read_tokens(data, 3, 2)
    width, height, maxval = int(width_b), int(height_b), int(maxval_b)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: width and height must be >= 1, got {width} x {height}")
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels

    if magic in (b"P5", b"P6"):
        pos += 1  # single whitespace byte after the header
        if len(data) - pos < count:
            raise ValueError(f"{path}: truncated pixel data")
        raw = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        tokens, _ = _read_tokens(data, count, pos)
        raw = np.array([int(t) for t in tokens], dtype=np.float64)
    if not (raw.min() >= 0 and raw.max() <= maxval):
        raise ValueError(f"{path}: sample values must lie in [0, {maxval}], "
                         f"got {raw.min():g} to {raw.max():g}")
    img = raw.astype(np.float64).reshape(
        (height, width, 3) if channels == 3 else (height, width)
    )
    return img / maxval


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as binary PGM (maxval 255)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {img.shape}")
    pixels = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(pixels.tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Write a [0, 1] (H, W, 3) array as binary PPM (maxval 255)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"PPM needs an (H, W, 3) array, got shape {img.shape}")
    pixels = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(pixels.tobytes())


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Channel average for color images; passthrough for grayscale."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        return img
    if img.ndim == 3:
        return img.mean(axis=2)
    raise ValueError(f"expected (H, W) or (H, W, C), got shape {img.shape}")


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a grayscale image with bilinear interpolation.

    Pixel centers convention: source coordinate of output pixel i is
    (i + 0.5) * scale - 0.5, clamped to the valid range.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {img.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()

    ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0, in_h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - fx) + img[np.ix_(y0, x1)] * fx
    bottom = img[np.ix_(y1, x0)] * (1 - fx) + img[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy
