import numpy as np
import pytest

from spikeconv import LinearModel, accuracy, fit, predict
from spikeconv.modelio import load_svm, save_svm
from spikeconv.svm import _MAX_PASSES, _TOL, decision_scores

from oracles import hinge_objective, subgradient_svm


def _blobs(rng, centers, n_per, spread=0.4):
    xs, ys = [], []
    for label, c in enumerate(centers):
        xs.append(rng.normal(0, spread, (n_per, len(c))) + np.asarray(c))
        ys.append(np.full(n_per, label))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


class TestFit:
    def test_separable_blobs_reach_full_training_accuracy(self):
        rng = np.random.default_rng(0)
        x, y = _blobs(rng, [(2.5, 2.5), (-2.5, -2.5)], 60)
        model = fit(x, y, seed=1)
        assert accuracy(model, x, y) == 1.0

    def test_conflicting_duplicate_labels_survive(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1, 1])
        model = fit(x, y, seed=1)
        assert accuracy(model, x, y) < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones((4, 2)), np.zeros(4), seed=1)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(np.ones((4, 2)), np.zeros(3), seed=1)

    def test_four_class_gaussians_match_subgradient_reference(self):
        rng = np.random.default_rng(5)
        centers = [(3, 0), (0, 3), (-3, 0), (0, -3)]
        x, y = _blobs(rng, centers, 50, spread=1.2)
        model = fit(x, y, seed=2)

        # independent one-vs-rest reference on the identical objective
        ref_w = np.stack([
            subgradient_svm(x, np.where(y == cls, 1.0, -1.0)) for cls in range(4)
        ])
        ref_pred = np.argmax(x @ ref_w.T, axis=1)
        ours = accuracy(model, x, y)
        theirs = float(np.mean(ref_pred == y))
        assert abs(ours - theirs) <= 0.02

        # and the dual solver should not be worse on the convex objective
        for cls in range(4):
            yb = np.where(y == cls, 1.0, -1.0)
            ours_obj = hinge_objective(model.weights[cls], x, yb)
            ref_obj = hinge_objective(ref_w[cls], x, yb)
            assert ours_obj <= ref_obj * 1.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x, y = _blobs(rng, [(2, 0), (0, 2), (-2, -2)], 40)
        a = fit(x, y, seed=3)
        b = fit(x, y, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def _reference_fit(x, y, c=1.0, seed=0):
    """One-vs-rest dual coordinate descent with its per-coordinate logic on
    numpy scalars, which ``fit`` must match bit for bit: per class the
    weights, the passes used, the last pass's largest projected gradient and
    the dual variables."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    rng = np.random.default_rng(seed)
    out = []
    for cls in np.unique(y):
        yb = np.where(y == cls, 1.0, -1.0)
        alpha = np.zeros(x.shape[0])
        w = np.zeros(x.shape[1])
        for passes in range(1, _MAX_PASSES + 1):
            worst = 0.0
            for i in rng.permutation(x.shape[0]):
                if sq[i] == 0.0:
                    continue
                g = yb[i] * (w @ x[i]) - 1.0
                if alpha[i] == 0.0:
                    pg = min(g, 0.0)
                elif alpha[i] == c:
                    pg = max(g, 0.0)
                else:
                    pg = g
                apg = abs(pg)
                if apg > worst:
                    worst = apg
                if apg > 1e-12:
                    prev = alpha[i]
                    alpha[i] = min(max(prev - g / sq[i], 0.0), c)
                    if alpha[i] != prev:
                        w += (alpha[i] - prev) * yb[i] * x[i]
            if worst < _TOL:
                break
        out.append((w, passes, worst, alpha))
    return out


def _solver_cases():
    """Seeded problems: (features, labels, c, seed, what the case must show)."""
    rng = np.random.default_rng(21)
    easy, easy_y = _blobs(rng, [(3.0, 3.0), (-3.0, -3.0)], 20, spread=0.3)
    hard, hard_y = _blobs(rng, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 40, spread=1.5)
    zero = hard.copy()
    zero[[3, 17, 50]] = 0.0
    noise, noise_y = rng.random((60, 8)), rng.integers(0, 3, 60)
    # shaped like the benchmark's readout: 50 sum-pooled fc512 rows, mostly
    # maps that fired at the target (1.0), some later (0, 1) or silent (0)
    u = rng.random((50, 512))
    pooled = np.where(u < 0.9, 1.0, np.where(u < 0.96, rng.random((50, 512)), 0.0))
    pooled_y = rng.permutation(np.arange(50) % 10)
    return [
        (easy, easy_y, 1.0, 0, "early stop"),
        (hard, hard_y, 0.5, 1, "alpha at c"),
        (zero, hard_y, 1.0, 2, "zero row"),
        (noise, noise_y, 10.0, 3, "pass cap"),
        (hard[:, :2] * 40.0, hard_y, 0.01, 4, "alpha at c"),
        (pooled, pooled_y, 1.0, 0, "every class at the cap"),
    ]


class TestSolver:
    @pytest.mark.parametrize("case", _solver_cases(), ids=lambda case: case[-1])
    def test_weights_bitwise_those_of_the_numpy_scalar_loop(self, case):
        x, y, c, seed, what = case
        model = fit(x, y, c=c, seed=seed)
        ref = _reference_fit(x, y, c, seed)
        for ci, (w, passes, worst, alpha) in enumerate(ref):
            assert np.array_equal(model.weights[ci], w)
            assert model.passes[ci] == passes and model.max_pg[ci] == worst
        alphas = np.concatenate([alpha for *_, alpha in ref])
        shown = {
            "early stop": max(p for _, p, _, _ in ref) < _MAX_PASSES,
            "alpha at c": bool(np.any(alphas == c)),
            "zero row": bool(np.any(~x.any(axis=1))),
            "pass cap": any(p == _MAX_PASSES and g >= _TOL for _, p, g, _ in ref),
            "every class at the cap": all(p == _MAX_PASSES and g >= _TOL for _, p, g, _ in ref),
        }
        assert shown[what]

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_bitwise_that_of_the_temporary_making_loop(self, seed, monkeypatch):
        # the solver's loop before its update reused one buffer: a
        # ``w @ x_i`` product and ``w += (new - prev) * y_i * x_i``, which
        # makes two temporaries. Features of random sparsity and scale, with
        # zero rows, signed or not, at C != 1
        import spikeconv.svm as svm

        def loop(x, y, sq, c, rng):
            rows, ys, sqs, c = list(x), y.tolist(), sq.tolist(), float(c)
            alpha = [0.0] * x.shape[0]
            w = np.zeros(x.shape[1])
            for passes in range(1, _MAX_PASSES + 1):
                worst = 0.0
                for i in rng.permutation(x.shape[0]).tolist():
                    if sqs[i] == 0.0:
                        continue
                    xi, yi, prev = rows[i], ys[i], alpha[i]
                    g = yi * float(w @ xi) - 1.0
                    pg = min(g, 0.0) if prev == 0.0 else max(g, 0.0) if prev == c else g
                    worst = max(worst, abs(pg))
                    if abs(pg) > 1e-12:
                        new = min(max(prev - g / sqs[i], 0.0), c)
                        if new != prev:
                            alpha[i] = new
                            w += (new - prev) * yi * xi
                if worst < _TOL:
                    break
            return w, passes, worst

        rng = np.random.default_rng(40 + seed)
        n, d = int(rng.integers(20, 70)), int(rng.integers(3, 90))
        x = rng.random((n, d)) * (rng.random((n, d)) < rng.uniform(0.1, 0.9))
        x *= 10.0 ** rng.uniform(-2.0, 2.0)
        if seed % 2:
            x -= rng.random((n, d))
        x[rng.choice(n, 3, replace=False)] = 0.0
        y = rng.integers(0, 4, n)
        c = (0.05, 0.3, 2.0, 7.5, 0.8, 40.0)[seed]
        got = fit(x, y, c=c, seed=seed)
        monkeypatch.setattr(svm, "_dual_cd", loop)
        want = fit(x, y, c=c, seed=seed)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.passes, want.passes) and np.array_equal(got.max_pg, want.max_pg)

    def test_convergence_report_is_not_written(self, tmp_path):
        rng = np.random.default_rng(22)
        x, y = _blobs(rng, [(2, 0), (0, 2), (-2, -2)], 20)
        model = fit(x, y, seed=3)
        assert model.passes.dtype == np.int64 and model.passes.shape == (3,)
        assert np.all((model.passes >= 1) & (model.passes <= _MAX_PASSES))
        assert np.all(model.max_pg >= 0.0)
        save_svm(tmp_path / "a.svm", model)
        back = load_svm(tmp_path / "a.svm")
        assert back.passes is None and back.max_pg is None
        save_svm(tmp_path / "b.svm", back)
        assert (tmp_path / "a.svm").read_bytes() == (tmp_path / "b.svm").read_bytes()


class TestPredict:
    def test_zero_model_predicts_class_zero(self):
        model = LinearModel(np.arange(3), np.zeros((3, 4)), np.zeros(3), np.ones(3))
        x = np.random.default_rng(8).random((5, 4))
        assert np.all(predict(model, x) == 0)

    def test_exact_ties_prefer_frequent_training_class(self):
        counts = np.array([10, 50, 20])
        model = LinearModel(np.arange(3), np.zeros((3, 4)), np.zeros(3), counts)
        x = np.random.default_rng(9).random((6, 4))
        assert np.all(predict(model, x) == 1)

    def test_scale_invariance_of_predictions(self):
        rng = np.random.default_rng(10)
        x, y = _blobs(rng, [(2, 1), (-1, 2), (0, -2)], 30)
        model = fit(x, y, seed=5)
        scaled = LinearModel(model.classes, model.weights * 7.3,
                             model.bias * 7.3, model.class_counts)
        assert np.array_equal(predict(model, x), predict(scaled, x))

    def test_dimension_mismatch_rejected(self):
        model = LinearModel(np.arange(2), np.zeros((2, 4)), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            predict(model, np.ones((3, 5)))

    def test_single_vector_prediction(self):
        rng = np.random.default_rng(11)
        x, y = _blobs(rng, [(3, 3), (-3, -3)], 30)
        model = fit(x, y, seed=6)
        lone = predict(model, x[0])
        assert lone == predict(model, x[:1])[0]

    def test_labels_preserved(self):
        # original (non-contiguous) label values come back out
        x = np.array([[2.0, 0.0], [0.0, 2.0], [2.1, 0.0], [0.0, 1.9]])
        y = np.array([7, 42, 7, 42])
        model = fit(x, y, seed=7)
        assert set(predict(model, x)) <= {7, 42}
        assert accuracy(model, x, y) == 1.0


class TestAccuracy:
    def test_empty_set_rejected(self):
        model = LinearModel(np.arange(2), np.zeros((2, 2)), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            accuracy(model, np.zeros((0, 2)), np.zeros(0))


class TestDegenerateFeatures:
    def test_all_zero_features_collapse_to_majority_class(self):
        # a dead network produces identical (zero) rows; the fitted model
        # must deterministically predict the most frequent training class
        rng = np.random.default_rng(12)
        y_train = rng.choice(10, p=[0.08, 0.16] + [0.095] * 8, size=400)
        x_train = np.zeros((400, 32))
        model = fit(x_train, y_train, seed=8)
        scores = decision_scores(model, np.zeros((3, 32)))
        assert np.all(scores == 0.0)  # exact ties, not solver noise
        majority = np.argmax(np.bincount(y_train))
        assert np.all(predict(model, np.zeros((50, 32))) == majority)


class TestNonFinite:
    """A NaN feature would drop its sample from a fit and score every class
    NaN (class 0 wins), so fit and every scoring entry refuse it by row."""

    def _data(self):
        rng = np.random.default_rng(13)
        return rng.random((20, 4)), np.arange(20) % 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_names_the_first_non_finite_row(self, bad):
        x, y = self._data()
        x[7, 2] = x[12, 0] = bad
        with pytest.raises(ValueError, match="^feature row 7 holds NaN or infinite values$"):
            fit(x, y, seed=1)

    @pytest.mark.parametrize("c", [-1.0, 0.0, np.nan, np.inf])
    def test_fit_rejects_a_c_that_is_not_finite_and_positive(self, c):
        x, y = self._data()
        with pytest.raises(ValueError, match="C must be finite and > 0"):
            fit(x, y, c=c, seed=1)

    def test_scoring_names_the_non_finite_row(self):
        x, y = self._data()
        model = fit(x, y, seed=1)
        bad = x.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ValueError, match="^feature row 3 holds NaN"):
            decision_scores(model, bad)
        with pytest.raises(ValueError, match="^feature row 3 holds NaN"):
            predict(model, bad)
        with pytest.raises(ValueError, match="^feature row 3 holds NaN"):
            accuracy(model, bad, y)
        with pytest.raises(ValueError, match="^feature row 0 holds NaN"):
            predict(model, bad[3])  # a single vector is row 0
        # every finite row still scores
        assert np.array_equal(predict(model, np.delete(bad, 3, axis=0)),
                              np.delete(predict(model, x), 3))
