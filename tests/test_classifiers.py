"""Tests for repro.classifiers."""

import numpy as np
import pytest

from repro.classifiers import KNNClassifier, LogisticRegressionClassifier, MLPClassifier
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError, NotFittedError


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(150, 6, separation=3.5, rng=0)


ALL_CLASSIFIERS = [
    lambda d: MLPClassifier(d, 2, hidden=(16,), epochs=40, rng=0),
    lambda d: LogisticRegressionClassifier(d, 2),
    lambda d: KNNClassifier(2, k=5),
]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS,
                         ids=["mlp", "logistic", "knn"])
class TestClassifierContract:
    def test_learns_separable_data(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        acc = (clf.predict(blobs.features) == blobs.labels).mean()
        assert acc > 0.9

    def test_proba_shape_and_simplex(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        proba = clf.predict_proba(blobs.features[:10])
        assert proba.shape == (10, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        assert (proba >= 0).all()

    def test_predict_is_argmax(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        proba = clf.predict_proba(blobs.features[:20])
        np.testing.assert_array_equal(
            clf.predict(blobs.features[:20]), proba.argmax(axis=1)
        )

    def test_unfitted_raises(self, factory, blobs):
        clf = factory(blobs.n_features)
        with pytest.raises(NotFittedError):
            clf.predict_proba(blobs.features[:3])

    def test_fit_soft_accepts_distributions(self, factory, blobs):
        soft = np.zeros((blobs.n_objects, 2))
        soft[np.arange(blobs.n_objects), blobs.labels] = 0.9
        soft[np.arange(blobs.n_objects), 1 - blobs.labels] = 0.1
        clf = factory(blobs.n_features).fit_soft(blobs.features, soft)
        acc = (clf.predict(blobs.features) == blobs.labels).mean()
        assert acc > 0.85

    def test_confidence_margin_in_unit_interval(self, factory, blobs):
        clf = factory(blobs.n_features).fit(blobs.features, blobs.labels)
        margins = clf.confidence_margin(blobs.features[:15])
        assert margins.shape == (15,)
        assert (margins >= 0).all() and (margins <= 1).all()

    def test_wrong_soft_shape_raises(self, factory, blobs):
        clf = factory(blobs.n_features)
        with pytest.raises(ConfigurationError):
            clf.fit_soft(blobs.features, np.ones((blobs.n_objects, 5)))


class TestLogisticSpecifics:
    def test_sample_weights_tilt_decision(self):
        # Two identical points with opposite labels: weights decide.
        x = np.zeros((2, 1))
        y = np.array([0, 1])
        clf = LogisticRegressionClassifier(1, 2, l2=0.0)
        clf.fit(x, y, sample_weights=np.array([10.0, 1.0]))
        assert clf.predict_proba(np.zeros((1, 1)))[0, 0] > 0.5

    def test_bad_weight_shape_raises(self):
        clf = LogisticRegressionClassifier(2, 2)
        with pytest.raises(ConfigurationError):
            clf.fit(np.ones((3, 2)), np.array([0, 1, 0]),
                    sample_weights=np.ones(2))

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(0, 2)
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(2, 2, learning_rate=0)
        with pytest.raises(ConfigurationError):
            LogisticRegressionClassifier(2, 2, l2=-1)

    def test_multiclass(self):
        ds = make_blobs(200, 5, n_classes=3, separation=5.0, rng=2)
        clf = LogisticRegressionClassifier(5, 3).fit(ds.features, ds.labels)
        assert (clf.predict(ds.features) == ds.labels).mean() > 0.8


def _zero_start_descent(x, y, n_classes, learning_rate=0.5, epochs=200,
                        l2=1e-3, tol=1e-6):
    """Zero-initialised full-batch descent, as every logistic fit ran
    before fits continued from the current weights: the oracle a fresh
    instance's one-shot fit must still match bit for bit."""
    soft = np.zeros((y.shape[0], n_classes))
    soft[np.arange(y.shape[0]), y] = 1.0
    w = np.full(x.shape[0], 1.0 / x.shape[0])
    weight = np.zeros((x.shape[1], n_classes))
    bias = np.zeros(n_classes)
    prev_loss = np.inf
    for _ in range(epochs):
        logits = x @ weight + bias
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        proba = ex / ex.sum(axis=1, keepdims=True)
        err = (proba - soft) * w[:, None]
        grad_w = x.T @ err + l2 * weight
        grad_b = err.sum(axis=0)
        weight = weight - learning_rate * grad_w
        bias = bias - learning_rate * grad_b
        loss = -float((w * (soft * np.log(proba + 1e-12)).sum(axis=1)).sum())
        if abs(prev_loss - loss) < tol:
            break
        prev_loss = loss
    return weight, bias


class TestLogisticWarmStart:
    def test_fresh_fit_matches_zero_start_descent(self):
        ds = make_blobs(80, 5, n_classes=3, separation=2.0, rng=4)
        clf = LogisticRegressionClassifier(5, 3, l2=0.02)
        clf.fit(ds.features, ds.labels)
        weight, bias = _zero_start_descent(ds.features, ds.labels, 3, l2=0.02)
        np.testing.assert_array_equal(clf.weight, weight)
        np.testing.assert_array_equal(clf.bias, bias)

    def test_second_fit_soft_continues_from_first(self):
        ds = make_blobs(80, 4, separation=2.0, rng=2)
        soft = np.eye(2)[ds.labels] * 0.8 + 0.1
        clf = LogisticRegressionClassifier(4, 2, epochs=5)
        clf.fit_soft(ds.features, soft)
        w_before = clf.weight.copy()
        clf.fit_soft(ds.features, soft)
        # Five more epochs from w_before, not five epochs from zero again.
        fresh = LogisticRegressionClassifier(4, 2, epochs=5)
        fresh.fit_soft(ds.features, soft)
        np.testing.assert_array_equal(fresh.weight, w_before)
        assert not np.allclose(w_before, clf.weight)
        ten = LogisticRegressionClassifier(4, 2, epochs=10)
        ten.fit_soft(ds.features, soft)
        np.testing.assert_allclose(clf.weight, ten.weight, rtol=1e-12)


class TestKNNSpecifics:
    def test_memorises_training_points(self, blobs):
        clf = KNNClassifier(2, k=1).fit(blobs.features, blobs.labels)
        np.testing.assert_array_equal(
            clf.predict(blobs.features), blobs.labels
        )

    def test_k_capped_by_training_size(self):
        clf = KNNClassifier(2, k=50)
        clf.fit(np.array([[0.0], [1.0]]), np.array([0, 1]))
        proba = clf.predict_proba(np.array([[0.5]]))
        assert proba.shape == (1, 2)

    def test_wrong_query_width_raises(self, blobs):
        clf = KNNClassifier(2).fit(blobs.features, blobs.labels)
        with pytest.raises(ConfigurationError):
            clf.predict_proba(np.ones((2, blobs.n_features + 1)))

    def test_invalid_k_raises(self):
        with pytest.raises(ConfigurationError):
            KNNClassifier(2, k=0)

    def test_unweighted_variant(self, blobs):
        clf = KNNClassifier(2, k=3, distance_weighted=False)
        clf.fit(blobs.features, blobs.labels)
        acc = (clf.predict(blobs.features) == blobs.labels).mean()
        assert acc > 0.9


class TestMLPSpecifics:
    def test_warm_start_continues(self):
        ds = make_blobs(80, 4, separation=2.0, rng=2)
        clf = MLPClassifier(4, 2, hidden=(8,), epochs=5, warm_start=True, rng=0)
        clf.fit(ds.features, ds.labels)
        w_before = clf._network.layers[0].weight.copy()
        clf.fit(ds.features, ds.labels)
        assert not np.allclose(w_before, clf._network.layers[0].weight)

    def test_cold_start_reinitialises(self):
        ds = make_blobs(80, 4, separation=2.0, rng=2)
        clf = MLPClassifier(4, 2, hidden=(8,), epochs=5, rng=0)
        clf.fit(ds.features, ds.labels)
        first = clf._network
        clf.fit(ds.features, ds.labels)
        assert clf._network is not first

    def test_invalid_features_raise(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(0, 2)
