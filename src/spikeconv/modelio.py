"""Self-describing binary containers for models and feature matrices.

Layout: an ASCII header (magic string, format version, architecture
listing) terminated by an ``end`` line, then raw little-endian float64
arrays in a fixed order. Round-trips are byte-exact; floats in headers are
written with repr, which is lossless for float64.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .core import Shape3
from .network import LayerSpec, Network, NetworkSpec
from .svm import LinearModel

__all__ = [
    "save_network",
    "load_network",
    "network_bytes",
    "network_from_bytes",
    "save_features",
    "load_features",
    "save_labels",
    "load_labels",
    "save_svm",
    "load_svm",
]

_MODEL_MAGIC = "SPIKECONV MODEL"
_SVM_MAGIC = "SPIKECONV SVM"
_FEATURES_MAGIC = "SPIKECONV FEATURES"
_VERSION = 1
# field count of each fixed-length model header line, keyword included
_HEADER_FIELDS = {"input": 4, "bounds": 3}
_INT64 = np.iinfo(np.int64)


def network_bytes(network: Network) -> bytes:
    network.require_ready()
    spec = network.spec
    for i in spec.trainable_indices():
        network.check_column(i, network.weights[i], network.thresholds[i])
    buf = io.BytesIO()
    d, h, w = spec.input_shape.astuple()
    buf.write(f"{_MODEL_MAGIC} {_VERSION}\n".encode())
    buf.write(f"input {d} {h} {w}\n".encode())
    buf.write(f"bounds {network.w_min!r} {network.w_max!r}\n".encode())
    for i, layer in enumerate(spec.layers):
        tt = network.t_targets[i]
        suffix = f" ttarget {tt!r}" if tt is not None else ""
        buf.write(f"layer {layer.to_line()}{suffix}\n".encode())
    buf.write(b"end\n")
    for i in spec.trainable_indices():
        buf.write(np.ascontiguousarray(network.weights[i], dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(network.thresholds[i], dtype="<f8").tobytes())
    return buf.getvalue()


def save_network(path, network: Network) -> None:
    data = network_bytes(network)  # a refused network leaves no file behind
    with open(path, "wb") as f:
        f.write(data)


def _read_header_lines(buf: io.BytesIO, magic: str):
    first = buf.readline().decode().rstrip("\n")
    parts = first.rsplit(" ", 1)
    if len(parts) != 2 or parts[0] != magic:
        raise ValueError(f"bad magic: expected {magic!r}, got {first!r}")
    version = int(parts[1])
    if version != _VERSION:
        raise ValueError(f"unsupported format version {version}")
    lines = []
    while True:
        raw = buf.readline()
        if not raw:
            raise ValueError("truncated header: missing 'end'")
        line = raw.decode().rstrip("\n")
        if line == "end":
            return lines
        lines.append(line)


def network_from_bytes(data: bytes) -> Network:
    buf = io.BytesIO(data)
    lines = _read_header_lines(buf, _MODEL_MAGIC)
    input_shape = None
    w_min, w_max, bounds_line = 0.0, 1.0, None
    layers, targets, layer_lines = [], [], []
    for line in lines:
        fields = line.split()
        key = fields[0] if fields else ""
        if key in _HEADER_FIELDS and len(fields) != _HEADER_FIELDS[key]:
            raise ValueError(f"malformed header line {line!r}")
        if key == "input":
            input_shape = Shape3(int(fields[1]), int(fields[2]), int(fields[3]))
        elif key == "bounds":
            w_min, w_max = float(fields[1]), float(fields[2])
            bounds_line = line
        elif key == "layer":
            layer_lines.append(line)
            if "ttarget" in fields:
                k = fields.index("ttarget")
                if k != len(fields) - 2:
                    raise ValueError(f"malformed header line {line!r}")
                t_target = float(fields[k + 1])
                if not math.isfinite(t_target):
                    raise ValueError(f"non-finite ttarget in header line {line!r}")
                targets.append(t_target)
                fields = fields[:k]
            else:
                targets.append(None)
            layers.append(LayerSpec.from_line(" ".join(fields[1:])))
        else:
            raise ValueError(f"unknown header line {line!r}")
    if input_shape is None or not layers:
        raise ValueError("header is missing the input/layer listing")

    spec = NetworkSpec(input_shape, layers)
    try:
        net = Network(spec, w_min, w_max)
    except ValueError as exc:
        raise ValueError(f"{exc} in header line {bounds_line!r}") from None
    net.t_targets = targets
    # every layer's arrays must fit in the bytes left before any is read
    rest = len(data) - buf.tell()
    for i in spec.trainable_indices():
        size = 8 * (math.prod(spec.weight_shape(i)) + spec.layers[i].maps)
        if size > rest:
            raise ValueError(f"truncated parameter arrays: header line "
                             f"{layer_lines[i]!r} needs {size} bytes, {rest} left")
        rest -= size
    if rest:
        raise ValueError(f"{rest} trailing bytes after parameter arrays")
    for i in spec.trainable_indices():
        weights = _read_array(buf, spec.weight_shape(i))
        thresholds = _read_array(buf, (spec.layers[i].maps,))
        net.install_column(i, weights, thresholds)
    return net


def _read_array(buf, shape) -> np.ndarray:
    """The next array of ``shape``; callers check the bytes are there."""
    raw = buf.read(8 * math.prod(shape))
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def load_network(path) -> Network:
    with open(path, "rb") as f:
        return network_from_bytes(f.read())


# ---------------------------------------------------------------------------
# feature matrices


def save_features(path, features: np.ndarray, has_labels: bool = False) -> None:
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feats.shape}")
    with open(path, "wb") as f:
        f.write(f"{_FEATURES_MAGIC} {feats.shape[0]} {feats.shape[1]} "
                f"{int(has_labels)}\n".encode())
        f.write(feats.tobytes())


def load_features(path):
    with open(path, "rb") as f:
        header = f.readline().decode().split()
        data = f.read()
    if header[:2] != _FEATURES_MAGIC.split():
        raise ValueError(f"{path}: bad feature-container magic")
    shown = " ".join(header)
    try:
        rows, cols, has_labels = (int(v) for v in header[2:])
        if rows < 0 or cols < 0 or has_labels not in (0, 1):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{path}: feature header needs non-negative integer rows and cols "
            f"and a 0/1 labels flag, got {shown!r}"
        ) from None
    size = rows * cols * 8
    if len(data) < size:
        raise ValueError(f"{path}: truncated feature data for header {shown!r}")
    if len(data) > size:
        raise ValueError(
            f"{path}: {len(data) - size} trailing bytes after the feature data "
            f"of header {shown!r}"
        )
    feats = np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
    if not np.isfinite(feats).all():
        raise ValueError(f"{path}: feature data holds NaN or infinite values")
    return feats, bool(has_labels)


def save_labels(path, labels) -> None:
    with open(path, "w") as f:
        for v in labels:
            f.write(f"{int(v)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(line) for line in f if line.strip()], dtype=np.int64)


# ---------------------------------------------------------------------------
# classifier models


def save_svm(path, model: LinearModel) -> None:
    with open(path, "wb") as f:
        f.write(f"{_SVM_MAGIC} {_VERSION}\n".encode())
        f.write(f"dim {model.weights.shape[1]}\n".encode())
        for cls, count in zip(model.classes, model.class_counts):
            f.write(f"class {int(cls)} {int(count)}\n".encode())
        f.write(b"end\n")
        f.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def load_svm(path) -> LinearModel:
    with open(path, "rb") as f:
        data = f.read()
    buf = io.BytesIO(data)
    lines = _read_header_lines(buf, _SVM_MAGIC)
    dim = None
    classes, counts = [], []
    for line in lines:
        fields = line.split()
        key = fields[0] if fields else ""
        if key not in ("dim", "class"):
            raise ValueError(f"unknown header line {line!r}")
        try:
            values = [int(v) for v in fields[1:]]
        except ValueError:
            values = []
        # dim: the feature width; class: an int64 label and its non-negative count
        if (len(values) != (1 if key == "dim" else 2) or values[-1] < 0
                or not all(_INT64.min <= v <= _INT64.max for v in values)):
            raise ValueError(f"malformed header line {line!r}")
        if key == "dim":
            dim = values[0]
        elif values[0] in classes:
            raise ValueError(f"repeated class label in header line {line!r}")
        else:
            classes.append(values[0])
            counts.append(values[1])
    if dim is None or not classes:
        raise ValueError("classifier header is missing dim/class lines")
    size = len(classes) * (dim + 1) * 8
    rest = len(data) - buf.tell()
    if rest < size:
        raise ValueError("truncated classifier arrays")
    if rest > size:
        raise ValueError(f"{rest - size} trailing bytes after classifier arrays")
    weights = _read_array(buf, (len(classes), dim))
    bias = _read_array(buf, (len(classes),))
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("classifier weights or bias hold NaN or infinite values")
    return LinearModel(np.array(classes), weights, bias, np.array(counts))
