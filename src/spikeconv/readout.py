"""Decode output spikes into feature vectors, sparsity and visualizations.

The network's output spike times turn back into values through the inverse
of the latency code, referenced to the output layer's firing target: a
spike at t_target decodes to 1, anything at or after t_end (or absent)
decodes to 0. Sum pooling collapses spatial positions, the Hoyer measure
quantifies how concentrated the resulting feature vectors are, and the
filter reconstruction back-projects learned weights to the input plane for
inspection.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import check_grids, is_integer
from . import simulate
from .network import Network, POOL
from .simulate import InhibitionPolicy, NO_INHIBITION, forward_stacks, window_plan

__all__ = [
    "decode_grid",
    "sum_pool",
    "sparsity",
    "extract_features",
    "mean_sparsity",
    "reconstruct_filter",
]


def decode_grid(times: np.ndarray, t_target: float, t_end: float) -> np.ndarray:
    """Inverse latency code in [0, 1] of a fire-time grid (+inf = no spike).

    With t_target == t_end (a clipped target), the limit convention applies:
    any spike decodes to 1, no spike to 0. Both bounds must be finite.
    """
    _check_bounds(t_target, t_end)
    times = np.asarray(times, dtype=np.float64)
    finite = np.isfinite(times)
    if t_target == t_end:
        return finite.astype(np.float64)
    vals = np.zeros(times.shape)
    vals[finite] = np.clip(1.0 - (times[finite] - t_target) / (t_end - t_target), 0.0, 1.0)
    return vals


def _check_bounds(t_target: float, t_end: float) -> None:
    for name, value in (("t_target", t_target), ("t_end", t_end)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_target > t_end:
        raise ValueError(f"t_target must be <= t_end, got {t_target} > {t_end}")


def sum_pool(field: np.ndarray) -> np.ndarray:
    """Collapse a decoded (maps, H, W) field into one value per map."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ValueError(f"expected a (maps, H, W) field, got shape {field.shape}")
    return field.sum(axis=(1, 2))


def sparsity(y: np.ndarray) -> float:
    """Hoyer sparseness of a non-negative vector, in [0, 1].

    1 for a one-hot vector, 0 for a constant vector; the all-zero vector is
    defined as 0 (a silent network carries no structure).
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if n < 2:
        raise ValueError(f"sparsity needs a vector of dimension >= 2, got {n}")
    if not np.isfinite(y).all():  # NaN or ±inf would make the measure nan
        at = int(np.argmin(np.isfinite(y)))
        raise ValueError(f"sparsity needs finite values, got {y[at]} at entry {at}")
    return float(_hoyer(y[None, :])[0])


def _hoyer(rows: np.ndarray) -> np.ndarray:
    """``sparsity`` of each row of a finite C-contiguous (samples, n >= 2)
    matrix, in one pass: each row's sums are those of the row alone."""
    l2 = np.sqrt(np.sum(rows * rows, axis=1))
    l1 = np.sum(np.abs(rows), axis=1)
    rn = np.sqrt(rows.shape[1])
    live = l2 != 0.0
    out = np.zeros(len(rows))
    out[live] = (rn - l1[live] / l2[live]) / (rn - 1.0)
    return out


def extract_features(
    networks,
    grids,
    t_end: float,
    policy: InhibitionPolicy = NO_INHIBITION,
) -> np.ndarray:
    """Feature matrix of a dataset: per-network features concatenated.

    ``networks`` is one network or a non-empty list (ensemble members,
    concatenated in order); ``grids`` the encoded samples; ``t_end`` the end
    of the coding window the networks were trained on. Every sample must
    have the networks' input shape and hold no NaN or -inf; the error names
    the first sample that does not, and a ``policy`` that is not an
    ``InhibitionPolicy`` is refused, even over an empty dataset.

    Each network runs in groups of ``stack_size(spec, last)`` samples, as
    many as its last layer alone takes in one stack: the layers below the
    last run a group in their own ``forward_stacks`` stacks, which keep only
    the last layer's input fields, and the last layer then runs the whole
    group as one stack. Its output is decoded against the network's own
    firing target and sum-pooled at once. A one-layer network's groups are
    its stacks.
    """
    networks = [networks] if isinstance(networks, Network) else list(networks)
    if not networks:
        raise ValueError("feature extraction needs at least one network")
    if not isinstance(policy, InhibitionPolicy):  # no stack starts over an empty dataset
        raise ValueError(f"policy must be an InhibitionPolicy, got {type(policy).__name__}")
    for net in networks:
        if net.output_t_target is None:
            raise ValueError("network has no firing target to decode its output against")
        _check_bounds(net.output_t_target, t_end)  # before any sample runs
        net.require_ready()
        check_grids(grids, net.spec.input_shape)
    blocks = [np.zeros((len(grids), net.spec.out_shape.depth)) for net in networks]
    for net, block in zip(networks, blocks):
        last = len(net.spec.layers) - 1
        group = simulate.stack_size(net.spec, last)
        for lo in range(0, len(grids), group):
            part = fields = grids[lo:lo + group]
            if last:  # the last layer's input fields, one array for the group
                fields = np.empty((len(part),) + net.spec.shapes[last].astuple())
                for at, (*_, below) in forward_stacks(net, part, policy, 0, last):
                    fields[at:at + len(below)] = below
            for at, (out,) in forward_stacks(net, fields, policy, last):
                at += lo
                block[at:at + len(out)] = decode_grid(out, net.output_t_target, t_end).sum((2, 3))
    return np.concatenate(blocks, axis=1)


def mean_sparsity(features: np.ndarray) -> float:
    """Dataset mean of ``sparsity`` over feature rows, bit for bit, computed
    over the whole matrix at once; a row holding NaN or ±inf is rejected by
    its index."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError(f"expected a non-empty (samples, dims) matrix, got {features.shape}")
    if not np.isfinite(features).all():
        row, at = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"feature row {row} holds {features[row, at]} at entry {at}; "
                         "sparsity needs finite values")
    if features.shape[1] < 2:
        raise ValueError(f"sparsity needs a vector of dimension >= 2, got {features.shape[1]}")
    return float(np.mean(_hoyer(np.ascontiguousarray(features))))


def reconstruct_filter(network: Network, index: int, map_index: int) -> np.ndarray:
    """Back-project one learned filter to the input plane for visualization.

    Returns a (in_channels, h, w) array normalized into [0, 1] covering the
    neuron's receptive field: convolution weights compose linearly through
    lower layers and pooling windows expand by nearest-neighbor placement.
    Purely a rendering aid; never feeds back into training.
    """
    spec = network.spec
    layer = spec.layer(index, trainable=True)
    if not (is_integer(map_index) and 0 <= map_index < layer.maps):
        raise ValueError(f"map {map_index} out of range for layer {index}")
    network.require_ready()

    canvas = np.zeros((layer.maps, 1, 1))
    canvas[map_index, 0, 0] = 1.0
    for li in range(index, -1, -1):
        canvas = _project_down(canvas, spec.layers[li], network.weights[li])
    peak = canvas.max()
    if peak > 0:
        canvas = canvas / peak
    return canvas


def _project_down(canvas: np.ndarray, layer, weights) -> np.ndarray:
    """One transposed step: layer-output canvas -> layer-input canvas.

    Each position, in row-major order, adds its contribution onto the sites
    of its window in the layer's unpadded window plan.
    """
    d_out, h, w = canvas.shape
    d_in = d_out if layer.kind == POOL else weights.shape[1]
    # the unpadded input whose plan has exactly h x w positions
    out = np.zeros((d_in, (h - 1) * layer.stride + layer.filter_h,
                    (w - 1) * layer.stride + layer.filter_w))
    plan = window_plan(out.shape, dataclasses.replace(layer, padding=0))
    per_pos = canvas.reshape(d_out, plan.positions)
    if layer.kind == POOL:  # a pooling plan indexes the sites of one map
        np.add.at(out.reshape(d_out, -1), (slice(None), plan.win_index), per_pos[:, :, None])
    else:  # a map-major copy: BLAS sums over maps in that layout's order
        weights = np.ascontiguousarray(weights)
        contrib = [np.tensordot(per_pos[:, p], weights, axes=(0, 0)).ravel()
                   for p in range(plan.positions)]
        np.add.at(out.reshape(-1), plan.win_index, np.array(contrib))
    return out
