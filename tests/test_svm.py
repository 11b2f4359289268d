import numpy as np
import pytest

from spikeconv import LinearModel, accuracy, fit, predict
from spikeconv.svm import decision_scores

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
