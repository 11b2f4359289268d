"""Dataset ingestion: MNIST-style IDX files and labeled image directories."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .images import bilinear_resize, read_pnm, to_grayscale

__all__ = ["LabeledImageSet", "load_idx", "load_image_dir", "load_split_list"]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class LabeledImageSet:
    """Uniform-size grayscale images in [0, 1] with small integer labels."""

    images: np.ndarray            # (N, H, W) float64
    labels: np.ndarray            # (N,) int64
    class_names: list[str]

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, n: int) -> "LabeledImageSet":
        return LabeledImageSet(self.images[:n], self.labels[:n], self.class_names)


def _read_be_header(f, path, words: int):
    raw = f.read(4 * words)
    if len(raw) < 4 * words:
        raise ValueError(f"{path}: truncated IDX header")
    return struct.unpack(f">{words}i", raw)


def load_idx(images_path, labels_path) -> LabeledImageSet:
    """Parse a big-endian IDX image/label file pair (the MNIST format)."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = _read_be_header(f, images_path, 4)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        if min(count, rows, cols) < 0:
            raise ValueError(f"{images_path}: negative size in IDX header "
                             f"(count {count}, rows {rows}, cols {cols})")
        raw = f.read(count * rows * cols)
        if len(raw) < count * rows * cols:
            raise ValueError(f"{images_path}: truncated pixel data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        magic, lcount = _read_be_header(f, labels_path, 2)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        if lcount < 0:
            raise ValueError(f"{labels_path}: negative count {lcount} in IDX header")
        raw = f.read(lcount)
        if len(raw) < lcount:
            raise ValueError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if count != lcount:
        raise ValueError(
            f"image count {count} ({images_path}) != label count {lcount} ({labels_path})"
        )
    names = [str(d) for d in range(int(labels.max()) + 1)] if count else []
    return LabeledImageSet(images.astype(np.float64) / 255.0, labels.astype(np.int64), names)


def _load_one(path, target, decoder):
    img = to_grayscale(decoder(path))
    if target is not None:
        img = bilinear_resize(img, target[0], target[1])
    return img


def load_image_dir(root, target_size=None, decoder=read_pnm) -> LabeledImageSet:
    """Load one-subdirectory-per-class images, grayscaled and resized.

    Classes and files are taken in lexicographic order so loading is
    deterministic; unreadable files are skipped with a warning.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"{root}: no class subdirectories")
    images, labels, names = [], [], []
    for label, cdir in enumerate(class_dirs):
        names.append(cdir.name)
        loaded = 0
        for fp in sorted(cdir.iterdir()):
            if not fp.is_file():
                continue
            try:
                images.append(_load_one(fp, target_size, decoder))
                labels.append(label)
                loaded += 1
            except (ValueError, OSError) as exc:
                warnings.warn(f"skipping unreadable image {fp}: {exc}")
        if loaded == 0:
            raise ValueError(f"{cdir}: class directory has no readable images")
    return LabeledImageSet(np.stack(images), np.array(labels, dtype=np.int64), names)


def load_split_list(root, list_path, target_size=None, decoder=read_pnm) -> LabeledImageSet:
    """Load an explicit split: one 'relative/path label' pair per line."""
    root = Path(root)
    images, labels = [], []
    with open(list_path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{list_path}:{ln}: expected 'path label', got {line!r}")
            rel, label_s = parts
            try:
                label = int(label_s)
            except ValueError:
                raise ValueError(f"{list_path}:{ln}: bad label {label_s!r}") from None
            images.append(_load_one(root / rel, target_size, decoder))
            labels.append(label)
    if not images:
        raise ValueError(f"{list_path}: empty split list")
    names = [str(c) for c in sorted(set(labels))]
    return LabeledImageSet(np.stack(images), np.array(labels, dtype=np.int64), names)
