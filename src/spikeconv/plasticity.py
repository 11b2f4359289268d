"""Weight updates (three STDP rules) and threshold updates.

STDP compares each synapse's pre-spike time against the neuron's fire time:
potentiation when the input fired at or before the output, depression
otherwise (a silent input counts as firing after everything). Thresholds
adapt twice per winning sample: first toward the target firing timestamp,
then the winner/loser homeostasis step that keeps the competition fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdditiveStdp",
    "MultiplicativeStdp",
    "BiologicalStdp",
    "ThresholdParams",
    "stdp_delta_array",
    "apply_stdp",
    "adapt_threshold_target",
    "adapt_threshold_winner",
]


@dataclass(frozen=True)
class AdditiveStdp:
    """Fixed-step rule: +eta on potentiation, -eta on depression."""

    eta_w: float = 0.1

    def __post_init__(self):
        if not 0 < self.eta_w < np.inf:
            raise ValueError(f"eta_w must be positive and finite, got {self.eta_w}")


@dataclass(frozen=True)
class MultiplicativeStdp:
    """Saturation-aware rule: step shrinks as the weight nears its bound."""

    eta_w: float = 0.1
    beta: float = 1.0

    def __post_init__(self):
        if not 0 < self.eta_w < np.inf:
            raise ValueError(f"eta_w must be positive and finite, got {self.eta_w}")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class BiologicalStdp:
    """Time-sensitive rule with an exponential factor exp(|dt| / tau).

    As published, the step magnitude grows with the pre/post delay (the
    exponent is the negation of the classical leaky form); weight clipping
    keeps it bounded. Set ``decay_with_delay=True`` for the classical
    variant whose steps shrink with the delay. Silent inputs evaluate the
    exponential at the coding window's end, the latest physically possible
    spike time.
    """

    eta_w: float = 0.1
    tau: float = 0.1
    decay_with_delay: bool = False

    def __post_init__(self):
        if not 0 < self.eta_w < np.inf:
            raise ValueError(f"eta_w must be positive and finite, got {self.eta_w}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


@dataclass(frozen=True)
class ThresholdParams:
    """Target-timestamp threshold adaptation parameters."""

    t_target: float = 0.7
    eta_th: float = 1.0
    th_min: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.t_target):
            raise ValueError(f"t_target must be finite, got {self.t_target}")
        if not 0 < self.eta_th < np.inf:
            raise ValueError(f"eta_th must be positive and finite, got {self.eta_th}")
        if not 0 < self.th_min < np.inf:
            raise ValueError(f"th_min must be positive and finite, got {self.th_min}")


def stdp_delta_array(rule, pre_times: np.ndarray, t_post: float, w: np.ndarray,
                     w_min: float = 0.0, w_max: float = 1.0, *,
                     t_end: float) -> np.ndarray:
    """Raw weight change of every synapse, before clipping.

    ``pre_times`` holds each input's spike time, +inf when it stayed silent
    this sample; a silent input always lands in the depression branch, and
    the biological rule times it at the coding window's end ``t_end``.
    """
    pot = np.isfinite(pre_times) & (pre_times <= t_post)
    if isinstance(rule, AdditiveStdp):
        return np.where(pot, rule.eta_w, -rule.eta_w)
    if isinstance(rule, MultiplicativeStdp):
        span = w_max - w_min
        up = rule.eta_w * np.exp(-rule.beta * (w - w_min) / span)
        down = rule.eta_w * np.exp(-rule.beta * (w_max - w) / span)
        return np.where(pot, up, -down)
    if isinstance(rule, BiologicalStdp):
        tp = np.where(np.isfinite(pre_times), pre_times, t_end)
        gap = np.abs(t_post - tp)
        sign_exp = -1.0 if rule.decay_with_delay else 1.0
        mag = rule.eta_w * np.exp(sign_exp * gap / rule.tau)
        return np.where(pot, mag, -mag)
    raise TypeError(f"unknown STDP rule {rule!r}")


def apply_stdp(weights: np.ndarray, winner: int, pre_times: np.ndarray,
               t_post: float, rule, w_min: float = 0.0, w_max: float = 1.0, *,
               t_end: float) -> None:
    """Update the winner's synapses in place and clip into [w_min, w_max].

    ``weights`` is the column's (maps, in_maps, F_h, F_w) tensor; only row
    ``winner`` changes. ``pre_times`` matches one row's shape, +inf = silent;
    ``t_end`` is the coding window's end.
    """
    w = weights[winner]
    delta = stdp_delta_array(rule, pre_times, t_post, w, w_min, w_max, t_end=t_end)
    np.clip(w + delta, w_min, w_max, out=w)


def adapt_threshold_target(v_th: float, t_fire: float, params: ThresholdParams) -> float:
    """Move a fired neuron's threshold to correct its timing error."""
    return max(params.th_min, v_th - params.eta_th * (t_fire - params.t_target))


def adapt_threshold_winner(thresholds: np.ndarray, winner: int,
                           eta_th: float, th_min: float) -> np.ndarray:
    """Homeostasis step: raise the winner by eta, lower everyone else.

    The N-1 losers drop by eta/(N-1), so one cycle of the update sums to
    zero and the timing rule's fixed point sits exactly at its target.
    Returns new thresholds, floored at ``th_min``.
    """
    n = len(thresholds)
    loser_step = eta_th / (n - 1) if n > 1 else 0.0  # a lone neuron has no loser
    out = np.asarray(thresholds, dtype=np.float64) - loser_step
    out[winner] = thresholds[winner] + eta_th
    return np.maximum(th_min, out)
