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


def network_bytes(network: Network) -> bytes:
    network.require_ready()
    spec = network.spec
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
    with open(path, "wb") as f:
        f.write(network_bytes(network))


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
    w_min, w_max = 0.0, 1.0
    layers, targets = [], []
    for line in lines:
        fields = line.split()
        key = fields[0] if fields else ""
        if key in _HEADER_FIELDS and len(fields) != _HEADER_FIELDS[key]:
            raise ValueError(f"malformed header line {line!r}")
        if key == "input":
            input_shape = Shape3(int(fields[1]), int(fields[2]), int(fields[3]))
        elif key == "bounds":
            w_min, w_max = float(fields[1]), float(fields[2])
        elif key == "layer":
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
    net = Network(spec, w_min, w_max)
    net.t_targets = targets
    for i in spec.trainable_indices():
        wshape = spec.weight_shape(i)
        net.weights[i] = _read_array(buf, wshape)
        net.thresholds[i] = _read_array(buf, (spec.layers[i].maps,))
    rest = buf.read()
    if rest:
        raise ValueError(f"{len(rest)} trailing bytes after parameter arrays")
    return net


def _read_array(buf, shape) -> np.ndarray:
    count = int(np.prod(shape))
    raw = buf.read(count * 8)
    if len(raw) < count * 8:
        raise ValueError("truncated parameter arrays")
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
        if header[:2] != _FEATURES_MAGIC.split():
            raise ValueError(f"{path}: bad feature-container magic")
        try:
            rows, cols, has_labels = (int(v) for v in header[2:5])
        except ValueError:
            raise ValueError(
                f"{path}: feature header needs integer rows, cols and labels "
                f"fields, got {' '.join(header)!r}"
            ) from None
        raw = f.read(rows * cols * 8)
        if len(raw) < rows * cols * 8:
            raise ValueError(f"{path}: truncated feature data")
        feats = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
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
        buf = io.BytesIO(f.read())
    lines = _read_header_lines(buf, _SVM_MAGIC)
    dim = None
    classes, counts = [], []
    for line in lines:
        fields = line.split()
        if fields[0] == "dim":
            dim = int(fields[1])
        elif fields[0] == "class":
            classes.append(int(fields[1]))
            counts.append(int(fields[2]))
        else:
            raise ValueError(f"unknown header line {line!r}")
    if dim is None or not classes:
        raise ValueError("classifier header is missing dim/class lines")
    weights = _read_array(buf, (len(classes), dim))
    bias = _read_array(buf, (len(classes),))
    return LinearModel(np.array(classes), weights, bias, np.array(counts))
