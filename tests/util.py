"""Shared test helpers: randomized small networks and spike trains."""

from __future__ import annotations

import numpy as np

from spikeconv import LayerSpec, Network, NetworkSpec, Shape3

from oracles import TICK


def random_network(rng: np.random.Generator, max_neurons: int = 64,
                   w_low: float = 0.0) -> Network:
    """A random 1-3 layer conv/pool/fc stack with modest thresholds.

    Weights are drawn from [w_low, 1) under bounds [w_low, 1]; a negative
    ``w_low`` gives signed weights and bounds, which the crossing engine
    scans without its bound pre-filter.
    """
    return drawn_network(lambda lo, hi: int(rng.integers(lo, hi)),
                         lambda options: str(rng.choice(options)),
                         rng.uniform, max_neurons, w_low)


def drawn_network(integer, choose, uniform, max_neurons: int = 64,
                  w_low: float = 0.0) -> Network:
    """``random_network`` from any source of choices.

    ``integer(lo, hi)`` draws an int in [lo, hi), ``choose(options)`` one of
    the options and ``uniform(lo, hi, shape)`` an array of floats, so a
    Hypothesis strategy can make the same choices and shrink them.
    """
    depth = integer(1, 3)
    h = integer(5, 10)
    w = integer(5, 10)
    in_shape = Shape3(depth, h, w)

    layers = []
    shape = in_shape
    n_layers = integer(1, 4)
    for li in range(n_layers):
        kinds = ["conv"]
        if shape.height >= 4 and shape.width >= 4:
            kinds.append("pool")
        if li == n_layers - 1:
            kinds.append("fc")
        kind = choose(kinds)
        if kind == "pool":
            f = integer(2, 4)
            stride = integer(1, f + 1)
            pad = integer(0, 2)
            spec = LayerSpec("pool", f, f, shape.depth, stride, pad)
        else:
            fh = integer(1, min(4, shape.height) + 1)
            fw = integer(1, min(4, shape.width) + 1)
            maps = integer(2, 7)
            stride = integer(1, 3)
            pad = integer(0, 2)
            if kind == "fc":
                fh, fw, stride, pad = shape.height, shape.width, 1, 0
            spec = LayerSpec(kind, fh, fw, maps, stride, pad)
        try:
            nxt = spec.out_shape(shape)
        except ValueError:
            continue
        if nxt.size > max_neurons:
            continue
        layers.append(spec)
        shape = nxt
    if not layers:
        layers = [LayerSpec("conv", 2, 2, 3, 1, 0)]

    net = Network(NetworkSpec(in_shape, layers), w_low)
    for i in net.spec.trainable_indices():
        net.weights[i] = uniform(w_low, 1.0, net.spec.weight_shape(i))
        # low thresholds so small nets actually spike
        net.thresholds[i] = uniform(0.5, 3.0, net.spec.layers[i].maps)
    return net


def synthetic_convergence_run(t_target: float, seed: int = 0, n_epoch: int = 100,
                              neurons: int = 4, samples: int = 40):
    """Train one column on a stationary synthetic spike ensemble.

    Returns (mean winner fire time, max win share, no-winner count) measured
    over the final epoch.
    """
    from spikeconv import MultiplicativeStdp, RngStreams, TrainConfig, TrainingLog
    from spikeconv.training import train_layer

    rng = np.random.default_rng(seed)
    spec = NetworkSpec(Shape3(2, 5, 5), [LayerSpec("conv", 5, 5, neurons, 1, 0)])
    # every line spikes once per sample (times redrawn per sample, the
    # sample set itself fixed across epochs), so each sample can drive a
    # fire anywhere in the window
    grids = [rng.integers(0, 2 ** 20, size=(2, 5, 5)) * TICK for _ in range(samples)]
    cfg = TrainConfig(n_epoch=n_epoch, rule=MultiplicativeStdp(0.1, 1.0),
                      t_target=t_target)
    log = TrainingLog()
    train_layer(spec, 0, grids, cfg, RngStreams(seed), t_target, log)
    last = log.rows[-1]
    mean_time = float(last[6])
    counts = np.array([int(c) for c in last[7].split(";")])
    fired = counts.sum()
    share = counts.max() / fired if fired else 0.0
    return mean_time, float(share), int(last[5])


def random_grid(rng: np.random.Generator, shape: Shape3, n: int,
                tie_heavy: bool = False) -> np.ndarray:
    """Fire-time grid with ``n`` spiking sites at binary-exact times, +inf
    elsewhere; optionally many time ties."""
    sites = rng.choice(shape.size, size=min(n, shape.size), replace=False)
    if tie_heavy:
        pool = rng.integers(0, 2 ** 20, size=max(2, n // 4))
        ticks = rng.choice(pool, size=len(sites))
    else:
        ticks = rng.integers(0, 2 ** 20, size=len(sites))
    grid = np.full(shape.size, np.inf)
    grid[sites] = ticks * TICK
    return grid.reshape(shape.astuple())
