"""Seeded procedural 10-class 28x28 stroke images, written as IDX pairs.

Every class owns a template of polyline strokes drawn on the unit square,
loosely shaped like the ten digits. An image renders its class template
after a random shift and scale (position jitter), per-point jitter and a
per-stroke thickness drawn around a base width (thickness noise). The
same seed always gives the same uint8 bytes.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

SIDE = 28
N_CLASSES = 10


def _arc(cx, cy, rx, ry, a0, a1, n=10):
    a = np.linspace(np.radians(a0), np.radians(a1), n)
    return list(zip(cx + rx * np.cos(a), cy - ry * np.sin(a)))


# (x, y) with y growing downwards; each entry is one polyline stroke
TEMPLATES = (
    (_arc(0.5, 0.5, 0.24, 0.34, 0, 360, 16),),
    ([(0.38, 0.26), (0.52, 0.14), (0.52, 0.86)],),
    (_arc(0.5, 0.33, 0.22, 0.19, 160, -20, 8) + [(0.26, 0.86), (0.76, 0.86)],),
    (_arc(0.48, 0.32, 0.2, 0.17, 150, -90, 9), _arc(0.48, 0.67, 0.23, 0.19, 90, -150, 9)),
    ([(0.62, 0.86), (0.62, 0.14), (0.22, 0.62), (0.8, 0.62)],),
    ([(0.74, 0.14), (0.32, 0.14), (0.28, 0.46)] + _arc(0.48, 0.64, 0.24, 0.22, 130, -150, 10),),
    (_arc(0.5, 0.66, 0.22, 0.2, 0, 360, 12), [(0.28, 0.64), (0.4, 0.3), (0.62, 0.12)]),
    ([(0.24, 0.14), (0.78, 0.14), (0.42, 0.86)], [(0.36, 0.5), (0.68, 0.5)]),
    (_arc(0.5, 0.31, 0.18, 0.17, 0, 360, 10), _arc(0.5, 0.68, 0.23, 0.19, 0, 360, 12)),
    (_arc(0.5, 0.34, 0.21, 0.2, 0, 360, 12), [(0.71, 0.36), (0.64, 0.86)]),
)


def _segments(label, rng):
    """Jittered segment endpoints (S, 2, 2) and per-segment radius (S,), in pixels."""
    shift = rng.uniform(-0.08, 0.08, 2)
    scale = rng.uniform(0.85, 1.1, 2)
    starts, ends, radii = [], [], []
    for stroke in TEMPLATES[label]:
        pts = np.asarray(stroke, dtype=np.float64)
        pts = (pts - 0.5) * scale + 0.5 + shift + rng.normal(0.0, 0.015, pts.shape)
        pts *= SIDE - 1
        radius = 0.35 + rng.gamma(4.0, 0.08)
        starts.append(pts[:-1])
        ends.append(pts[1:])
        radii.append(np.full(len(pts) - 1, radius))
    return np.concatenate(starts), np.concatenate(ends), np.concatenate(radii)


_GRID = np.stack(np.meshgrid(np.arange(SIDE), np.arange(SIDE)), axis=-1).reshape(-1, 1, 2)


def render(label: int, rng: np.random.Generator) -> np.ndarray:
    """One anti-aliased (28, 28) uint8 image of class ``label``."""
    a, b, r = _segments(label, rng)
    ab = b - a
    t = np.clip(np.einsum("psk,sk->ps", _GRID - a, ab) / np.einsum("sk,sk->s", ab, ab), 0.0, 1.0)
    dist = np.linalg.norm(_GRID - (a + t[..., None] * ab), axis=-1) - r
    ink = np.clip(1.0 - dist, 0.0, 1.0).max(axis=1)
    return np.round(ink * 255.0).astype(np.uint8).reshape(SIDE, SIDE)


def make_split(n: int, seed: int, name: str):
    """``n`` images of split ``name`` with labels cycling through the classes in a shuffled order.

    Each (seed, split name) pair owns its own random stream.
    """
    rng = np.random.default_rng([0x5752, int(seed), zlib.crc32(name.encode())])
    labels = rng.permutation(np.arange(n) % N_CLASSES).astype(np.uint8)
    images = np.stack([render(int(c), rng) for c in labels])
    return images, labels


def idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    """Big-endian IDX encodings (the MNIST format) of an image/label pair."""
    n, h, w = images.shape
    img = struct.pack(">4i", 0x0803, n, h, w) + images.astype(np.uint8).tobytes()
    lab = struct.pack(">2i", 0x0801, n) + labels.astype(np.uint8).tobytes()
    return img, lab


def write_idx(directory, name: str, images: np.ndarray, labels: np.ndarray):
    """Write ``<name>-images-idx3-ubyte`` / ``<name>-labels-idx1-ubyte``; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    img_path = directory / f"{name}-images-idx3-ubyte"
    lab_path = directory / f"{name}-labels-idx1-ubyte"
    img, lab = idx_bytes(images, labels)
    img_path.write_bytes(img)
    lab_path.write_bytes(lab)
    return img_path, lab_path
