"""Layer-wise unsupervised training with single-column patch updates.

One trainable layer learns at a time, bottom-up. For every sample, the
frozen prefix converts the encoded input into the layer's input spike
field, a random receptive-field-sized patch is cut out, and a single
column of IF neurons competes (WTA) over it: the first neuron to fire
applies STDP and both threshold updates. After each epoch the learning
rates decay by the annealing factor. The trained column is then broadcast
onto every position of the layer (shared filters) before the next layer
starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import RngStreams, check_fire_times
from .encoding import CodingWindow, DoGParams, encode_image_grid
from .network import Network, NetworkSpec, POOL
from .plasticity import (
    BiologicalStdp,
    ThresholdParams,
    adapt_threshold_target,
    adapt_threshold_wta,
    apply_stdp,
)
from .simulate import InhibitionPolicy, NO_INHIBITION, column_response, forward_layer

__all__ = [
    "TrainConfig",
    "EnsembleMember",
    "TrainingLog",
    "sample_patch",
    "train_layer",
    "broadcast_column",
    "train_network",
    "train_ensemble",
    "layer_t_targets",
    "encode_dataset",
]


@dataclass(frozen=True)
class TrainConfig:
    """Everything the layer-wise protocol needs besides data and seed."""

    n_epoch: int = 100
    anneal: float = 0.95
    rule: object = field(default_factory=BiologicalStdp)
    t_target: float = 0.7
    delta_t: float = 0.0
    t_targets: tuple | None = None  # explicit per-trainable-layer override
    eta_th: float = 1.0
    th_min: float = 1.0
    v_th_mean: float = 5.0
    v_th_std: float = 1.0
    w_min: float = 0.0
    w_max: float = 1.0
    dog: DoGParams = field(default_factory=DoGParams)
    window: CodingWindow = field(default_factory=CodingWindow)
    shuffle: bool = False
    # threshold step when no competitor fires on a patch: "share" subtracts
    # eta_th / N from every threshold, "step" the full eta_th. The full step
    # drags the timing rule's equilibrium early by roughly
    # (no-winner rate / winner rate) of the window, so "share" is the default
    no_winner: str = "share"
    # inhibition the frozen prefix runs with while producing the trained
    # layer's inputs: "none" calibrates thresholds to inference-style
    # traffic, "wta" to competition-filtered traffic
    prefix_policy: str = "none"

    def __post_init__(self):
        if self.n_epoch < 1:
            raise ValueError("n_epoch must be >= 1")
        if not 0 < self.anneal <= 1:
            raise ValueError("anneal factor must be in (0, 1]")
        if self.no_winner not in ("step", "share"):
            raise ValueError(f"no_winner must be 'step' or 'share', got {self.no_winner!r}")
        if self.prefix_policy not in ("none", "wta"):
            raise ValueError(
                f"prefix_policy must be 'none' or 'wta', got {self.prefix_policy!r}"
            )
        if self.t_targets is not None and self.delta_t != 0.0:
            raise ValueError("give either explicit t_targets or delta_t, not both")
        ThresholdParams(self.t_target, self.eta_th, self.th_min)  # checks those three
        for name in ("delta_t", "v_th_mean", "v_th_std", "w_min", "w_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.v_th_std >= 0 and self.w_min < self.w_max):
            raise ValueError(f"need v_th_std >= 0 and w_min < w_max, got "
                             f"{self.v_th_std}, {self.w_min}, {self.w_max}")
        if self.t_targets is not None and not np.all(np.isfinite(self.t_targets)):
            raise ValueError(f"t_targets must be finite, got {self.t_targets}")


@dataclass(frozen=True)
class EnsembleMember:
    """One network of a multi-target ensemble: firing target + output width."""

    t_target: float
    output_maps: int

    def __post_init__(self):
        if self.output_maps < 1:
            raise ValueError("output_maps must be >= 1")


class TrainingLog:
    """Per-epoch training telemetry, exportable as CSV."""

    COLUMNS = (
        "layer",
        "epoch",
        "eta_w",
        "eta_th",
        "samples",
        "no_winner",
        "mean_winner_time",
        "win_counts",
    )

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, layer, epoch, eta_w, eta_th, samples, no_winner, mean_time, counts):
        hist = ";".join(str(int(c)) for c in counts)
        self.rows.append(
            (layer, epoch, repr(float(eta_w)), repr(float(eta_th)), samples,
             no_winner, repr(float(mean_time)), hist)
        )

    def to_csv(self) -> str:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())


def layer_t_targets(spec: NetworkSpec, cfg: TrainConfig) -> list[float]:
    """Firing target per trainable layer: base + i * delta_t, clipped.

    An explicit ``cfg.t_targets`` tuple overrides the arithmetic sequence.
    """
    trainable = spec.trainable_indices()
    if cfg.t_targets is not None:
        if len(cfg.t_targets) != len(trainable):
            raise ValueError(
                f"need {len(trainable)} t_targets, got {len(cfg.t_targets)}"
            )
        vals = [float(t) for t in cfg.t_targets]
    else:
        vals = [cfg.t_target + i * cfg.delta_t for i in range(len(trainable))]
    lo, hi = cfg.window.t_start, cfg.window.t_end
    return [min(hi, max(lo, t)) for t in vals]


def encode_dataset(images, dog: DoGParams, window: CodingWindow) -> list[np.ndarray]:
    """Encode every image once; training passes reuse the spike grids."""
    return [encode_image_grid(img, dog, window) for img in images]


def sample_patch(rng: np.random.Generator, field_times: np.ndarray,
                 filter_h: int, filter_w: int, stride: int = 1,
                 padding: int = 0) -> np.ndarray:
    """Cut a random receptive-field window out of a layer-input spike field.

    The window's top-left corner is drawn uniformly over the positions an
    actual column of the layer could occupy (stride-aligned over the padded
    extent); timestamps are kept, silent and padded sites are +inf.
    """
    d, h, w = field_times.shape
    out_h = (h + 2 * padding - filter_h) // stride + 1
    out_w = (w + 2 * padding - filter_w) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"patch {filter_h}x{filter_w} (stride {stride}, padding {padding}) "
            f"does not fit field {field_times.shape}"
        )
    pos = int(rng.integers(out_h * out_w))
    oy, ox = divmod(pos, out_w)
    y0 = oy * stride - padding
    x0 = ox * stride - padding
    patch = np.full((d, filter_h, filter_w), np.inf)
    ys = slice(max(0, y0), min(h, y0 + filter_h))
    xs = slice(max(0, x0), min(w, x0 + filter_w))
    patch[:, ys.start - y0:ys.stop - y0, xs.start - x0:xs.stop - x0] = \
        field_times[:, ys, xs]
    return patch


def train_layer(spec: NetworkSpec, index: int, input_grids, cfg: TrainConfig,
                streams: RngStreams, t_target: float,
                log: TrainingLog | None = None):
    """Train one column of layer ``index`` on its input spike fields.

    ``input_grids`` are the frozen prefix's outputs, one (D, H, W) fire-time
    grid per training sample. Returns the column's (weights, thresholds).
    """
    layer = spec.layers[index]
    if layer.kind == POOL:
        raise ValueError(f"layer {index} is pooling and has nothing to train")
    if len(input_grids) == 0:
        raise ValueError("training dataset is empty")

    d_out = layer.maps
    w_rng = streams.stream("weights", index)
    th_rng = streams.stream("thresholds", index)
    patch_rng = streams.stream("patches", index)
    order_rng = streams.stream("order", index)

    weights = w_rng.uniform(cfg.w_min, cfg.w_max, spec.weight_shape(index))
    thresholds = np.maximum(
        cfg.th_min, th_rng.normal(cfg.v_th_mean, cfg.v_th_std, d_out)
    )

    n = len(input_grids)
    for epoch in range(cfg.n_epoch):
        decay = cfg.anneal ** epoch
        rule = dataclasses.replace(cfg.rule, eta_w=cfg.rule.eta_w * decay)
        params = ThresholdParams(t_target, cfg.eta_th * decay, cfg.th_min)
        nw_step = params.eta_th if cfg.no_winner == "step" else params.eta_th / d_out

        order = order_rng.permutation(n) if cfg.shuffle else range(n)
        wins = np.zeros(d_out, dtype=np.int64)
        no_winner = 0
        time_sum = 0.0
        for s in order:
            patch = sample_patch(
                patch_rng, input_grids[s], layer.filter_h, layer.filter_w,
                layer.stride, layer.padding,
            )
            res = column_response(patch, weights, thresholds)
            if res.winner is None:
                no_winner += 1
                thresholds = np.maximum(cfg.th_min, thresholds - nw_step)
                continue
            apply_stdp(weights, res.winner, patch, res.fire_time, rule,
                       cfg.w_min, cfg.w_max, t_end=cfg.window.t_end)
            thresholds[res.winner] = adapt_threshold_target(
                thresholds[res.winner], res.fire_time, params
            )
            fire_times = [None] * d_out
            fire_times[res.winner] = res.fire_time
            thresholds = adapt_threshold_wta(
                thresholds, fire_times, params.eta_th, params.th_min
            )
            wins[res.winner] += 1
            time_sum += res.fire_time

        if log is not None:
            fired = int(wins.sum())
            mean_t = time_sum / fired if fired else float("nan")
            log.add(index, epoch, rule.eta_w, params.eta_th, n, no_winner,
                    mean_t, wins)

    return weights, thresholds


def broadcast_column(network: Network, index: int, weights: np.ndarray,
                     thresholds: np.ndarray, t_target: float | None = None) -> None:
    """Copy a trained column onto every position of the layer."""
    network.install_column(index, weights, thresholds, t_target)


def train_network(spec: NetworkSpec, images, cfg: TrainConfig, seed: int,
                  encoded=None, log: TrainingLog | None = None) -> Network:
    """Full layer-wise protocol over a dataset of grayscale images.

    Pass ``encoded`` (list of (2, H, W) fire-time grids) to skip the DoG +
    latency encoding step, e.g. when it is shared across runs; a grid
    holding NaN or -inf is rejected, as ``forward_times`` rejects it.
    """
    streams = RngStreams(seed)
    network = Network(spec, cfg.w_min, cfg.w_max)
    targets = layer_t_targets(spec, cfg)
    grids = encoded if encoded is not None else encode_dataset(images, cfg.dog, cfg.window)
    if len(grids) == 0:
        raise ValueError("training dataset is empty")
    for grid in grids:
        check_fire_times(grid)

    prefix = (InhibitionPolicy("wta") if cfg.prefix_policy == "wta"
              else NO_INHIBITION)
    t_iter = iter(targets)
    for i, layer in enumerate(spec.layers):
        if layer.trainable:
            t_tgt = next(t_iter)
            w, th = train_layer(spec, i, grids, cfg, streams, t_tgt, log)
            broadcast_column(network, i, w, th, t_tgt)
        if i < len(spec.layers) - 1:
            # push every sample's spike field through the now-frozen layer
            grids = [forward_layer(network, i, g, prefix) for g in grids]
    return network


def train_ensemble(spec: NetworkSpec, images, cfg: TrainConfig, seed: int,
                   members, encoded=None, logs=None) -> list[Network]:
    """Train independent networks, one per (t_target, output width) member.

    Every trainable layer of a member uses that member's t_target. Member
    stream families are keyed by the member's own parameters, so training
    one member is unaffected by reordering, adding or removing the others;
    only the position of its feature block in the concatenation moves.
    """
    members = list(members)
    if not members:
        raise ValueError("ensemble needs at least one member")
    streams = RngStreams(seed)
    if encoded is None:
        encoded = encode_dataset(images, cfg.dog, cfg.window)
    nets = []
    for idx, member in enumerate(members):
        mspec = _with_output_maps(spec, member.output_maps)
        mcfg = dataclasses.replace(
            cfg, t_target=member.t_target, delta_t=0.0, t_targets=None
        )
        mseed = streams.child(
            int(round(member.t_target * 2 ** 30)), member.output_maps
        ).seed
        mlog = None if logs is None else logs[idx]
        nets.append(train_network(mspec, images, mcfg, mseed, encoded=encoded, log=mlog))
    return nets


def _with_output_maps(spec: NetworkSpec, maps: int) -> NetworkSpec:
    last = spec.trainable_indices()[-1]
    layers = list(spec.layers)
    layers[last] = dataclasses.replace(layers[last], maps=maps)
    return NetworkSpec(spec.input_shape, layers)
