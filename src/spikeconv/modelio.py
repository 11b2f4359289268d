"""Self-describing binary containers for models, classifiers and feature matrices.

Each is an ASCII header (``<magic> 1`` to ``end``, or for features the one
line ``SPIKECONV FEATURES <rows> <cols> <has_labels>``), then little-endian
float64 arrays. One codec serves all three: ``_container`` writes, ``_header``
checks magic, version and ``end``, ``_values`` parses a header line's numbers
and ``_arrays`` checks the exact byte count before it reads. A bad file raises
a ValueError that starts with the path and quotes the header line at fault.
Header floats are written with repr, so round-trips are byte-exact. The
feature, label and classifier writers parse the bytes they built with their
reader's own code before they open the file (a network checks every write of
its own), so what is written reads back, and a refused write leaves any
existing file untouched.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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


def _container(magic: str, lines, arrays) -> bytes:
    """``<magic> 1``, the header lines and ``end``, then the float64 arrays."""
    head = "".join(f"{line}\n" for line in [f"{magic} {_VERSION}", *lines, "end"])
    return head.encode() + b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)


def _line(data: bytes, offset: int) -> tuple[str, int]:
    """The ASCII header line at ``offset`` and the offset after its newline."""
    stop = data.find(b"\n", offset) + 1 or len(data)
    raw = data[offset:stop].rstrip(b"\n")
    if not raw.isascii():
        raise ValueError(f"non-ASCII header line {raw[:80]!r}")
    return raw.decode(), stop


def _header(data: bytes, magic: str) -> tuple[list[str], int]:
    """The lines between ``<magic> 1`` and ``end``, and the offset of the arrays."""
    first, offset = _line(data, 0)
    if first.split()[:2] != magic.split():
        raise ValueError(f"bad magic: expected {magic!r}, got {first[:80]!r}")
    if first != f"{magic} {_VERSION}":
        raise ValueError(f"unsupported format version in header line {first!r}")
    lines = []
    while offset < len(data):
        line, offset = _line(data, offset)
        if line == "end":
            return lines, offset
        lines.append(line)
    raise ValueError("truncated header: missing 'end'")


def _keyed(lines, once, many) -> dict:
    """Header lines by first word; a word in ``once`` may appear only once."""
    keyed = {key: [] for key in once + many}
    for line in lines:
        key = (line.split() or [""])[0]
        if key not in keyed:
            raise ValueError(f"unknown header line {line!r}")
        if key in once and keyed[key]:
            raise ValueError(f"repeated header line {line!r}")
        keyed[key].append(line)
    return keyed


def _values(line: str, conv, count: int, words: int = 1, low: float = -math.inf) -> list:
    """The ``count`` numbers after the first ``words`` fields of header ``line``.

    Each must be finite and at least ``low``; an integer must fit int64.
    """
    try:
        values = [conv(v) for v in line.split()[words:]]
    except ValueError:
        values = []
    low, top = (max(low, -2**63), 2**63 - 1) if conv is int else (low, math.inf)
    if len(values) != count or not all(low <= v <= top and math.isfinite(v) for v in values):
        raise ValueError(f"malformed header line {line!r}")
    return values


def _arrays(data: bytes, offset: int, shapes) -> list[np.ndarray]:
    """The float64 arrays that fill ``data`` from ``offset``, one per (header line,
    shape) pair; a short file names the line of the first array that does not fit."""
    rest = len(data) - offset
    for line, shape in shapes:
        size = 8 * math.prod(shape)
        if size > rest:
            raise ValueError(
                f"truncated arrays: header line {line!r} needs {size} bytes, {rest} left")
        rest -= size
    if rest:
        raise ValueError(f"{rest} trailing bytes after the arrays")
    arrays = []
    for _, shape in shapes:
        arrays.append(np.frombuffer(data, "<f8", math.prod(shape), offset).reshape(shape).copy())
        offset += arrays[-1].nbytes
    return arrays


@contextmanager
def _prefix(text: str):
    """Start a ValueError (or an overflow) raised inside with ``text``."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{text}: {exc}") from None


def _read(path, parse):
    """``parse`` of the file's bytes; a refusal is a ValueError that starts
    with the path."""
    with open(path, "rb") as f:
        data = f.read()
    with _prefix(str(path)):
        return parse(data)


def _write(path, data: bytes, parse) -> None:
    """Write ``data`` once ``parse``, its reader's parser, accepts it; a
    refusal is a ValueError that starts with the path."""
    with _prefix(str(path)):
        parse(data)
    with open(path, "wb") as f:
        f.write(data)


def network_bytes(network: Network) -> bytes:
    network.require_ready()
    spec = network.spec
    d, h, w = spec.input_shape.astuple()
    lines = [f"input {d} {h} {w}", f"bounds {network.w_min!r} {network.w_max!r}"]
    for layer, tt in zip(spec.layers, network.t_targets):
        lines.append(f"layer {layer.to_line()}" + (f" ttarget {tt!r}" if tt is not None else ""))
    arrays = [a for i in spec.trainable_indices()
              for a in (network.weights[i], network.thresholds[i])]
    return _container(_MODEL_MAGIC, lines, arrays)


def save_network(path, network: Network) -> None:
    data = network_bytes(network)  # a refused network leaves no file behind
    with open(path, "wb") as f:
        f.write(data)


def network_from_bytes(data: bytes) -> Network:
    lines, offset = _header(data, _MODEL_MAGIC)
    keyed = _keyed(lines, once=("input", "bounds"), many=("layer",))
    dims = [_values(line, int, 3) for line in keyed["input"]]
    bounds = (keyed["bounds"] or ["bounds 0.0 1.0"])[0]
    w_min, w_max = _values(bounds, float, 2)
    layers, targets = [], []
    for line in keyed["layer"]:
        fields = line.split()
        k = fields.index("ttarget") if "ttarget" in fields else len(fields)
        targets.append(_values(line, float, 1, words=k + 1)[0] if k < len(fields) else None)
        with _prefix(f"header line {line!r}"):
            layers.append(LayerSpec.from_line(" ".join(fields[1:k])))
    if not dims or not layers:
        raise ValueError("header is missing the input/layer listing")
    with _prefix(f"header line {keyed['input'][0]!r}"):
        spec = NetworkSpec(Shape3(*dims[0]), layers)
    with _prefix(f"header line {bounds!r}"):
        net = Network(spec, w_min, w_max)
    arrays = iter(_arrays(data, offset, [
        (keyed["layer"][i], shape) for i in spec.trainable_indices()
        for shape in (spec.weight_shape(i), (spec.layers[i].maps,))]))
    for i, (line, layer, target) in enumerate(zip(keyed["layer"], layers, targets)):
        column = (next(arrays), next(arrays)) if layer.trainable else (None, None)
        with _prefix(f"header line {line!r}"):
            net.install_column(i, *column, target)
    return net


def load_network(path) -> Network:
    return _read(path, network_from_bytes)


# ---------------------------------------------------------------------------
# feature matrices


def save_features(path, features: np.ndarray, has_labels: bool = False) -> None:
    feats = np.ascontiguousarray(features, dtype="<f8")
    if feats.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {feats.shape}")
    head = f"{_FEATURES_MAGIC} {feats.shape[0]} {feats.shape[1]} {int(has_labels)}\n"
    _write(path, head.encode() + feats.tobytes(), _features_from_bytes)


def _features_from_bytes(data: bytes):
    line, offset = _line(data, 0)
    if line.split()[:2] != _FEATURES_MAGIC.split():
        raise ValueError(f"bad magic: expected {_FEATURES_MAGIC!r}, got {line[:80]!r}")
    rows, cols, has_labels = _values(line, int, 3, words=2, low=0)
    if has_labels > 1:
        raise ValueError(f"labels flag must be 0 or 1 in header line {line!r}")
    (feats,) = _arrays(data, offset, [(line, (rows, cols))])
    if not np.isfinite(feats).all():
        raise ValueError("feature data holds NaN or infinite values")
    return feats, bool(has_labels)


def load_features(path):
    return _read(path, _features_from_bytes)


def save_labels(path, labels) -> None:
    """One label per line as ``str`` gives it, so a value the reader would
    not read back as the same int64 (1.7, NaN, 2**63) is refused."""
    _write(path, "".join(f"{v}\n" for v in labels).encode(), _labels_from_bytes)


def _labels_from_bytes(data: bytes) -> np.ndarray:
    labels = []
    for n, raw in enumerate(data.split(b"\n"), 1):
        if raw.strip():
            with _prefix(f"line {n} is not an int64 label"):
                labels.append(np.int64(int(raw)))
    return np.array(labels, dtype=np.int64)


def load_labels(path) -> np.ndarray:
    return _read(path, _labels_from_bytes)


# ---------------------------------------------------------------------------
# classifier models


def save_svm(path, model: LinearModel) -> None:
    lines = [f"dim {model.weights.shape[1]}"]
    lines += [f"class {c} {n}" for c, n in zip(model.classes, model.class_counts)]
    _write(path, _container(_SVM_MAGIC, lines, [model.weights, model.bias]), _svm_from_bytes)


def _svm_from_bytes(data: bytes) -> LinearModel:
    lines, offset = _header(data, _SVM_MAGIC)
    keyed = _keyed(lines, once=("dim",), many=("class",))
    dims = [_values(line, int, 1, low=0)[0] for line in keyed["dim"]]
    classes, counts = [], []
    for line in keyed["class"]:
        label, count = _values(line, int, 2)
        if count < 0:
            raise ValueError(f"negative class count in header line {line!r}")
        if label in classes:
            raise ValueError(f"repeated class label in header line {line!r}")
        classes.append(label)
        counts.append(count)
    if not dims or not classes:
        raise ValueError("classifier header is missing dim/class lines")
    weights, bias = _arrays(data, offset, [(keyed["dim"][0], (len(classes), dims[0])),
                                           (keyed["class"][-1], (len(classes),))])
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("classifier weights or bias hold NaN or infinite values")
    return LinearModel(np.array(classes), weights, bias, np.array(counts))


def load_svm(path) -> LinearModel:
    return _read(path, _svm_from_bytes)
