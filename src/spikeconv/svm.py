"""Linear multi-class SVM readout (one-vs-rest, L1 hinge, dual form).

Each binary subproblem is solved by dual coordinate descent with a seeded
coordinate order and a fixed pass budget, so fitting is exactly
reproducible. Features are used raw, the hyperplanes pass through the origin
(bias 0), and C defaults to 1 and is not tuned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearModel", "fit", "decision_scores", "predict", "accuracy"]

_MAX_PASSES = 40  # pass budget of each binary fit
_TOL = 1e-4  # a fit stops early once no projected gradient exceeds this


@dataclass
class LinearModel:
    """Per-class hyperplanes plus the training label census used for ties."""

    classes: np.ndarray          # (C,) sorted original labels
    weights: np.ndarray          # (C, d)
    bias: np.ndarray             # (C,)
    class_counts: np.ndarray     # (C,) training samples per class
    # how each binary fit ended: passes used and the last pass's largest
    # projected gradient (``fit`` sets them; the classifier file keeps neither)
    passes: np.ndarray | None = None    # (C,) int
    max_pg: np.ndarray | None = None    # (C,)

    def __post_init__(self):
        if self.weights.shape[0] != len(self.classes) or self.bias.shape[0] != len(self.classes):
            raise ValueError("per-class parameter counts disagree")


def fit(features: np.ndarray, labels: np.ndarray, c: float = 1.0,
        seed: int = 0) -> LinearModel:
    """Train one-vs-rest linear SVMs on a feature matrix.

    Deterministic given (data, seed): coordinate orders are drawn from the
    seed and the solver stops after ``_MAX_PASSES`` passes or when the
    largest projected gradient falls below ``_TOL``. The model's ``passes``
    and ``max_pg`` say, per class, which of the two ended the fit. A feature
    row holding NaN or +-inf, and a C that is not finite and > 0, are
    rejected.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if len(y) != x.shape[0]:
        raise ValueError(f"{x.shape[0]} feature rows vs {len(y)} labels")
    _check_finite(x)
    if not 0.0 < c < np.inf:
        raise ValueError(f"C must be finite and > 0, got {c}")
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("need at least two classes to fit a classifier")

    d = x.shape[1]
    sq = np.einsum("ij,ij->i", x, x)

    rng = np.random.default_rng(seed)
    weights = np.zeros((len(classes), d))
    passes = np.zeros(len(classes), dtype=np.int64)
    max_pg = np.zeros(len(classes))
    for ci, cls in enumerate(classes):
        yb = np.where(y == cls, 1.0, -1.0)
        weights[ci], passes[ci], max_pg[ci] = _dual_cd(x, yb, sq, c, rng)

    return LinearModel(classes, weights, np.zeros(len(classes)), counts, passes, max_pg)


def _check_finite(x: np.ndarray) -> None:
    """Reject a (samples, d) feature matrix holding NaN or +-inf, naming the
    first such row: a NaN feature would drop its sample from a fit unseen,
    and give every class a NaN score."""
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValueError(f"feature row {int(bad.argmax())} holds NaN or infinite values")


def _dual_cd(x, y, sq, c, rng):
    """Dual coordinate descent for min 1/2 w.w + C sum hinge(1 - y w.x).

    Returns the weights, the passes used and the last pass's largest
    projected gradient. A coordinate step makes only the NumPy calls it
    needs: ``w.dot(x_i)`` and, on an update, ``(new - prev) * y_i`` times
    the row into one reused buffer, which is then added to the weights in
    place. The projected gradient, its magnitude and the clip of the new
    alpha to [0, C] are plain comparisons on Python floats: they pick what
    ``min`` and ``max`` would, signed zeros included, and the magnitude is
    only compared, so the weights, passes and largest projected gradient
    are bitwise those of a loop on numpy scalars.
    """
    n = x.shape[0]
    rows = list(x)
    ys = y.tolist()
    sqs = sq.tolist()
    c = float(c)
    alpha = [0.0] * n
    w = np.zeros(x.shape[1])
    step = np.empty_like(w)
    dot, multiply, add, permutation = w.dot, np.multiply, np.add, rng.permutation
    for passes in range(1, _MAX_PASSES + 1):
        worst = 0.0
        for i in permutation(n).tolist():
            sqi = sqs[i]
            if sqi == 0.0:
                continue  # zero row: cannot move the objective
            xi, yi, prev = rows[i], ys[i], alpha[i]
            g = yi * float(dot(xi)) - 1.0
            if prev == 0.0:
                pg = 0.0 if g > 0.0 else g  # min(g, 0.0)
            elif prev == c:
                pg = 0.0 if g < 0.0 else g  # max(g, 0.0)
            else:
                pg = g
            apg = pg if pg > 0.0 else -pg
            if apg > worst:
                worst = apg
            if apg > 1e-12:
                new = prev - g / sqi
                if new < 0.0:
                    new = 0.0
                elif new > c:
                    new = c
                if new != prev:
                    alpha[i] = new
                    multiply(xi, (new - prev) * yi, step)
                    add(w, step, w)
        if worst < _TOL:
            break
    return w, passes, worst


def decision_scores(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Per-class scores, shape (samples, classes); a row holding NaN or
    +-inf is rejected."""
    x = np.asarray(features, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match model "
            f"dimension {model.weights.shape[1]}"
        )
    _check_finite(x)
    scores = x @ model.weights.T + model.bias
    return scores[0] if squeeze else scores


def predict(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per sample; exact score ties go to the most frequent
    training class, then to the lowest class index."""
    scores = np.atleast_2d(decision_scores(model, features))
    best = scores.max(axis=1, keepdims=True)
    tied = scores == best
    counts = np.where(tied, model.class_counts[None, :], -1)
    fullest = counts.max(axis=1, keepdims=True)
    idx = np.argmax(tied & (counts == fullest), axis=1)
    out = model.classes[idx]
    return out if np.asarray(features).ndim > 1 else out[0]


def accuracy(model: LinearModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions; rejects an empty evaluation set."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("cannot score an empty evaluation set")
    return float(np.mean(predict(model, features) == y))
