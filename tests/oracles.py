"""Independent reference implementations used to check the production code.

Everything here is written the obvious slow way (nested loops, explicit
state) and deliberately avoids the package's vectorized machinery, so the
two sides can disagree when one of them is wrong.
"""

from __future__ import annotations

import numpy as np

TICK = 2.0 ** -20  # binary-exact quantum, finer than 1e-6


def naive_conv2d_same(image, kernel):
    """Direct O(H W K^2) convolution with zero padding, same-size output."""
    h, w = image.shape
    k = kernel.shape[0]
    half = k // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for u in range(k):
                for v in range(k):
                    yy = y + half - u  # convolution flips the kernel
                    xx = x + half - v
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += image[yy, xx] * kernel[u, v]
            out[y, x] = acc
    return out


def naive_bilinear(image, out_h, out_w):
    """Pixel-loop bilinear resize, same center convention as the package."""
    in_h, in_w = image.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                image[y0, x0] * (1 - fy) * (1 - fx)
                + image[y0, x1] * (1 - fy) * fx
                + image[y1, x0] * fy * (1 - fx)
                + image[y1, x1] * fy * fx
            )
    return out


def naive_patch(rng, field, filter_h, filter_w, stride, padding):
    """Receptive-field window at a random output position, cut site by site.

    Draws the position as ``sample_patch`` does (uniform over the
    row-major output positions), then reads each window site at its corner
    offset; sites outside the field (padding) are +inf.
    """
    d, h, w = field.shape
    out_h = (h + 2 * padding - filter_h) // stride + 1
    out_w = (w + 2 * padding - filter_w) // stride + 1
    oy, ox = divmod(int(rng.integers(out_h * out_w)), out_w)
    patch = np.full((d, filter_h, filter_w), np.inf)
    for m in range(d):
        for ky in range(filter_h):
            for kx in range(filter_w):
                y = oy * stride - padding + ky
                x = ox * stride - padding + kx
                if 0 <= y < h and 0 <= x < w:
                    patch[m, ky, kx] = field[m, y, x]
    return patch


class DenseSimulator:
    """Dense time-stepped spiking simulator (the slow reference).

    Time is quantized to TICK. Within one tick, layers cascade in order;
    a layer's events are delivered one at a time in (map, y, x) order, and
    after each delivery every neuron of the target layer is scanned for
    threshold crossings, which resolve in (map, y, x) order with inhibition
    applied between firings. It reads and returns fire-time grids (+inf =
    silent) and builds its own per-tick delivery lists in between.
    """

    def __init__(self, network, policy=None):
        from spikeconv.simulate import NO_INHIBITION

        self.net = network
        self.policy = policy or NO_INHIBITION
        self.spec = network.spec
        self._no_policy = NO_INHIBITION

    def simulate(self, grid):
        """Per-layer output fire-time grids for one input grid."""
        spec = self.spec
        n_layers = len(spec.layers)
        v = []
        fired = []
        suppressed = []
        for li, layer in enumerate(spec.layers):
            shp = spec.shapes[li + 1].astuple()
            v.append(np.zeros(shp))
            fired.append(np.zeros(shp, dtype=bool))
            if self.policy.scope == "column":
                suppressed.append(np.zeros(shp[1:], dtype=bool))
            else:
                suppressed.append(np.zeros((1, 1), dtype=bool))
        outputs = [np.full(spec.shapes[li + 1].astuple(), np.inf) for li in range(n_layers)]

        pending = {}
        depth, height, width = grid.shape
        for m in range(depth):
            for y in range(height):
                for x in range(width):
                    if grid[m, y, x] < np.inf:
                        tick = int(round(grid[m, y, x] / TICK))
                        pending.setdefault(tick, {}).setdefault(0, []).append((m, y, x))

        for tick in sorted(pending):
            stages = pending[tick]
            for src in range(n_layers):
                if src not in stages:
                    continue
                for site in sorted(stages[src]):
                    fires = self._deliver(src, site, v, fired, suppressed)
                    for out_site in fires:
                        outputs[src][out_site] = tick * TICK
                        if src + 1 < n_layers:
                            stages.setdefault(src + 1, []).append(out_site)
        return outputs

    def _deliver(self, src, site, v, fired, suppressed):
        layer = self.spec.layers[src]
        in_shape = self.spec.shapes[src]
        out_shape = self.spec.shapes[src + 1]
        m, y, x = site
        fires = []

        if layer.kind == "pool":
            for oy in range(out_shape.height):
                for ox in range(out_shape.width):
                    ky = y + layer.padding - oy * layer.stride
                    kx = x + layer.padding - ox * layer.stride
                    if 0 <= ky < layer.filter_h and 0 <= kx < layer.filter_w:
                        if not fired[src][m, oy, ox]:
                            fired[src][m, oy, ox] = True
                            fires.append((m, oy, ox))
            return fires

        w = self.net.weights[src]
        th = self.net.thresholds[src]
        pol = self.policy
        if pol.layers == "output" and src != len(self.spec.layers) - 1:
            pol = self._no_policy
        candidates = []
        for o in range(out_shape.depth):
            for oy in range(out_shape.height):
                for ox in range(out_shape.width):
                    ky = y + layer.padding - oy * layer.stride
                    kx = x + layer.padding - ox * layer.stride
                    if not (0 <= ky < layer.filter_h and 0 <= kx < layer.filter_w):
                        continue
                    if fired[src][o, oy, ox]:
                        continue
                    v[src][o, oy, ox] += w[o, m, ky, kx]
                    if v[src][o, oy, ox] >= th[o]:
                        candidates.append((o, oy, ox))

        for o, oy, ox in sorted(candidates):
            if fired[src][o, oy, ox] or v[src][o, oy, ox] < th[o]:
                continue
            scope = (oy, ox) if pol.scope == "column" else (0, 0)
            if pol.mode == "wta" and suppressed[src][scope]:
                continue
            fired[src][o, oy, ox] = True
            v[src][o, oy, ox] = 0.0
            fires.append((o, oy, ox))
            if pol.mode == "wta":
                suppressed[src][scope] = True
            elif pol.mode == "soft" and pol.v_inh > 0:
                if pol.scope == "column":
                    for d in range(out_shape.depth):
                        if d != o and not fired[src][d, oy, ox]:
                            v[src][d, oy, ox] = max(0.0, v[src][d, oy, ox] - pol.v_inh)
                else:
                    for d in range(out_shape.depth):
                        for yy in range(out_shape.height):
                            for xx in range(out_shape.width):
                                if (d, yy, xx) != (o, oy, ox) and not fired[src][d, yy, xx]:
                                    v[src][d, yy, xx] = max(
                                        0.0, v[src][d, yy, xx] - pol.v_inh
                                    )
        return fires


def column_reference(network, index, grid, policy, trace=None):
    """Fire-time grid of conv or fc layer ``index`` for one input grid under a
    column-scope policy (or none), exact to the bit: one column at a time.

    Each output position gets its window's input spikes one by one in (time,
    map, y, x) order and adds each weight to every unfired map's potential,
    ``v = v + w``. The maps crossing after a delivery then fire in map order,
    each one rechecked first: under winner-take-all the first fire ends the
    column, under soft inhibition (``v_inh > 0``) it lowers every unfired map
    of the column to ``max(v - v_inh, 0)``. A fire takes the input's time.
    A ``trace`` list receives (map, potential) for every unfired map after
    every delivery and every floor.
    """
    layer = network.spec.layers[index]
    weights, thresholds = network.weights[index], network.thresholds[index]
    maps, out_h, out_w = network.spec.shapes[index + 1].astuple()
    depth, height, width = grid.shape
    mode = policy.mode
    if policy.layers == "output" and index != len(network.spec.layers) - 1:
        mode = "none"
    out = np.full((maps, out_h, out_w), np.inf)
    for oy in range(out_h):
        for ox in range(out_w):
            events = []
            for m in range(depth):
                for ky in range(layer.filter_h):
                    for kx in range(layer.filter_w):
                        y = oy * layer.stride - layer.padding + ky
                        x = ox * layer.stride - layer.padding + kx
                        if 0 <= y < height and 0 <= x < width and grid[m, y, x] < np.inf:
                            events.append((float(grid[m, y, x]), m, y, x, ky, kx))
            v = [0.0] * maps
            fired = [False] * maps
            for t, m, _, _, ky, kx in sorted(events):
                for d in range(maps):
                    if not fired[d]:
                        v[d] = v[d] + float(weights[d, m, ky, kx])
                        if trace is not None:
                            trace.append((d, v[d]))
                candidates = [d for d in range(maps) if not fired[d] and v[d] >= thresholds[d]]
                for d in candidates:
                    if v[d] < thresholds[d]:
                        continue  # an earlier fire at this input inhibited it
                    out[d, oy, ox] = t
                    fired[d] = True
                    if mode == "wta":
                        break
                    if mode == "soft" and policy.v_inh > 0.0:
                        for e in range(maps):
                            if not fired[e]:
                                v[e] = max(v[e] - policy.v_inh, 0.0)
                                if trace is not None:
                                    trace.append((e, v[e]))
                if mode == "wta" and any(fired):
                    break
    return out


def stdp_delta(rule, t_pre, t_post: float, w: float,
               w_min: float = 0.0, w_max: float = 1.0, *, t_end: float) -> float:
    """Raw weight change for one synapse, before clipping.

    ``t_pre`` is None when the input stayed silent this sample, which always
    lands in the depression branch; the biological rule times it at the
    coding window's end ``t_end``.
    """
    from spikeconv.plasticity import AdditiveStdp, BiologicalStdp, MultiplicativeStdp

    pot = t_pre is not None and t_pre <= t_post
    if isinstance(rule, AdditiveStdp):
        return rule.eta_w if pot else -rule.eta_w
    if isinstance(rule, MultiplicativeStdp):
        span = w_max - w_min
        if pot:
            return rule.eta_w * np.exp(-rule.beta * (w - w_min) / span)
        return -rule.eta_w * np.exp(-rule.beta * (w_max - w) / span)
    if isinstance(rule, BiologicalStdp):
        tp = t_end if t_pre is None else t_pre
        gap = abs(t_post - tp)
        sign_exp = -1.0 if rule.decay_with_delay else 1.0
        mag = rule.eta_w * np.exp(sign_exp * gap / rule.tau)
        return mag if pot else -mag
    raise TypeError(f"unknown STDP rule {rule!r}")


def adapt_threshold_wta(thresholds: np.ndarray, fire_times,
                        eta_th: float, th_min: float) -> np.ndarray:
    """``adapt_threshold_winner`` for the column's fire times (None = silent).

    The winner is the earliest fire time, ties to the lowest index; at least
    one neuron must have fired.
    """
    from spikeconv.plasticity import adapt_threshold_winner

    keyed = [(t, i) for i, t in enumerate(fire_times) if t is not None]
    if not keyed:
        raise ValueError("adapt_threshold_wta needs at least one fired neuron")
    return adapt_threshold_winner(thresholds, min(keyed)[1], eta_th, th_min)


def decode(t, t_target: float, t_end: float) -> float:
    """Inverse latency code in [0, 1]; ``t`` may be None / +inf (no spike).

    With t_target == t_end (a clipped target), the limit convention applies:
    any spike decodes to 1, no spike to 0.
    """
    if t_target > t_end:
        raise ValueError(f"t_target must be <= t_end, got {t_target} > {t_end}")
    if t is None or not np.isfinite(t):
        return 0.0
    if t_target == t_end:
        return 1.0
    return min(1.0, max(0.0, 1.0 - (t - t_target) / (t_end - t_target)))


def subgradient_svm(x, y_pm, c=1.0, steps=20000, lr0=0.5):
    """Plain averaged subgradient descent on 1/2 w.w + C sum hinge(1 - y w.x)."""
    n, d = x.shape
    w = np.zeros(d)
    acc = np.zeros(d)
    for t in range(steps):
        lr = lr0 / (1.0 + t * 0.01)
        margin = y_pm * (x @ w)
        grad = w - c * (x * y_pm[:, None])[margin < 1.0].sum(axis=0)
        w = w - lr * grad / n
        acc += w
    return acc / steps


def hinge_objective(w, x, y_pm, c=1.0):
    return 0.5 * w @ w + c * np.maximum(0.0, 1.0 - y_pm * (x @ w)).sum()
