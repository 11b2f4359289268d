"""Layer-wise unsupervised training with single-column patch updates.

One trainable layer learns at a time, bottom-up. For every sample, the
frozen prefix converts the encoded input into the layer's input spike
field, a random receptive-field-sized patch is cut out, and a single
column of IF neurons competes (WTA) over it: the first neuron to fire
applies STDP and both threshold updates. After each epoch the learning
rates decay by the annealing factor. The trained column is then broadcast
onto every position of the layer (shared filters) before the next layer
starts. The column trains in the layout the network stores, input-major,
one row of map weights per window slot (``train_layer``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import RngStreams, check_count, check_grids
from .encoding import CodingWindow, DoGParams, encode_dataset
from .network import LayerSpec, Network, NetworkSpec, POOL
from .plasticity import (
    BiologicalStdp,
    ThresholdParams,
    adapt_threshold_target,
    adapt_threshold_winner,
    apply_stdp,
)
from .simulate import InhibitionPolicy, column_response, forward_stacks, window_plan

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
        check_count("n_epoch", self.n_epoch)
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
        if not np.isfinite(self.t_target):
            raise ValueError(f"t_target must be finite, got {self.t_target}")
        check_count("output_maps", self.output_maps)


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


def sample_patch(rng: np.random.Generator, field_times: np.ndarray,
                 layer: LayerSpec) -> np.ndarray:
    """Cut a random receptive-field window out of a layer-input spike field.

    The window is the one a column of ``layer`` sees at a position drawn
    uniformly over the layer's output positions: a row of the layer's
    window plan, the same one inference reads. Timestamps are kept, silent
    and padded sites are +inf. Returns (depth, F_h, F_w).
    """
    if layer.kind == POOL:
        raise ValueError("pooling layers have no receptive field to train")
    field_times = np.asarray(field_times, dtype=np.float64)  # padded with +inf
    plan = window_plan(field_times.shape, layer)
    pos = int(rng.integers(plan.positions))
    patch = plan.pad_times(field_times).ravel()[plan.win_index[pos]]
    return patch.reshape(field_times.shape[0], layer.filter_h, layer.filter_w)


def train_layer(spec: NetworkSpec, index: int, input_grids, cfg: TrainConfig,
                streams: RngStreams, t_target: float,
                log: TrainingLog | None = None):
    """Train one column of layer ``index`` on its input spike fields.

    ``input_grids`` are the frozen prefix's outputs, one (D, H, W) fire-time
    grid per training sample; a grid whose shape is not the layer input's, or
    that holds NaN or -inf, is rejected before training starts. Returns the
    column's (weights, thresholds), the weights (maps, in_maps, F_h, F_w).

    The column is a C-contiguous (window, maps) array, one row of map weights
    per window slot: the layout ``Network.weights`` stores, so
    ``install_column`` copies it as it is. ``column_response`` gathers each
    block's slots as contiguous rows of it; it and ``apply_stdp`` get its
    map-major view ``w_in.T.reshape(shape)``, which is also what this returns,
    and the winner's update is a strided write.
    """
    layer = spec.layer(index, trainable=True)
    if len(input_grids) == 0:
        raise ValueError("training dataset is empty")
    check_grids(input_grids, spec.shapes[index], f"layer {index} input")

    d_out = layer.maps
    w_rng = streams.stream("weights", index)
    th_rng = streams.stream("thresholds", index)
    patch_rng = streams.stream("patches", index)
    order_rng = streams.stream("order", index)

    shape = spec.weight_shape(index)
    w_in = np.ascontiguousarray(w_rng.uniform(cfg.w_min, cfg.w_max, shape).reshape(d_out, -1).T)
    weights = w_in.T.reshape(shape)
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
            patch = sample_patch(patch_rng, input_grids[s], layer)
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
            thresholds = adapt_threshold_winner(
                thresholds, res.winner, params.eta_th, params.th_min
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
    latency encoding step, e.g. when it is shared across runs; a grid whose
    shape is not the network input's, or that holds NaN or -inf, is rejected
    before any layer trains, as ``extract_features`` rejects it.

    Before each trainable layer, the samples pass the frozen layers below
    it once, in ``forward_stacks``' stacks, starting from the fields the
    last advance kept; only that layer's input fields are kept, as one
    (samples, depth, H, W) array. Each trained layer's per-epoch rows go to
    ``log``, labelled by the layer's index.
    """
    streams = RngStreams(seed)
    network = Network(spec, cfg.w_min, cfg.w_max)
    targets = layer_t_targets(spec, cfg)
    grids = encoded if encoded is not None else encode_dataset(images, cfg.dog, cfg.window)
    if len(grids) == 0:
        raise ValueError("training dataset is empty")
    check_grids(grids, spec.input_shape)

    prefix = InhibitionPolicy(cfg.prefix_policy)
    done = 0  # ``grids`` hold the input fields of layer ``done``
    for i, t_tgt in zip(spec.trainable_indices(), targets):
        if i > done:
            fields = np.empty((len(grids),) + spec.shapes[i].astuple())
            for lo, (*_, last) in forward_stacks(network, grids, prefix, done, i):
                fields[lo:lo + len(last)] = last
            grids, done = fields, i
        w, th = train_layer(spec, i, grids, cfg, streams, t_tgt, log)
        broadcast_column(network, i, w, th, t_tgt)
    return network


def train_ensemble(spec: NetworkSpec, images, cfg: TrainConfig, seed: int,
                   members, encoded=None, log: TrainingLog | None = None) -> list[Network]:
    """Train independent networks, one per ``EnsembleMember``.

    Every trainable layer of a member uses that member's t_target. Member
    stream families are keyed by the member's own parameters, so training
    one member is unaffected by reordering, adding or removing the others;
    only the position of its feature block in the concatenation moves.
    Member ``i``'s rows go to ``log`` in member order, each labelled
    ``m<i>:<layer>``.
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
        mlog = None if log is None else TrainingLog()
        nets.append(train_network(mspec, images, mcfg, mseed, encoded=encoded, log=mlog))
        if log is not None:
            log.rows.extend((f"m{idx}:{r[0]}",) + r[1:] for r in mlog.rows)
    return nets


def _with_output_maps(spec: NetworkSpec, maps: int) -> NetworkSpec:
    last = spec.trainable_indices()[-1]
    layers = list(spec.layers)
    layers[last] = dataclasses.replace(layers[last], maps=maps)
    return NetworkSpec(spec.input_shape, layers)
