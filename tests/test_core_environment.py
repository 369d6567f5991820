"""Tests for repro.core.environment."""

import numpy as np
import pytest

from repro.core.config import CrowdRLConfig, default_classifier_factory
from repro.core.environment import Environment
from repro.crowd.cost import BudgetManager
from repro.crowd.platform import CrowdPlatform
from repro.datasets.synthetic import make_blobs
from repro.exceptions import ConfigurationError

from conftest import build_pool


def make_env(n_objects=60, separation=3.0, seed=0, **config_kwargs):
    dataset = make_blobs(n_objects, 6, separation=separation, rng=seed)
    pool = build_pool(worker_accs=(0.75, 0.7, 0.65), expert_accs=(0.97,),
                      seed=seed)
    platform = CrowdPlatform(dataset.labels, pool, BudgetManager(10_000.0))
    config = CrowdRLConfig(**config_kwargs)
    env = Environment(platform, dataset.features, config,
                      rng=np.random.default_rng(seed))
    return env, dataset, platform


class TestInferTruths:
    def test_empty_history_empty_result(self):
        env, _, _ = make_env()
        result = env.infer_truths()
        assert result.labels == {}
        assert env.truths == {}

    def test_small_sample_falls_back_to_mv(self):
        env, _, platform = make_env()
        platform.ask_batch([(0, [0, 1, 2])])
        env.infer_truths()
        assert 0 in env.truths
        assert env.classifier is None  # below min_labels_for_classifier

    def test_joint_inference_with_enough_labels(self):
        env, dataset, platform = make_env()
        platform.ask_batch((i, [0, 1, 2]) for i in range(30))
        env.infer_truths()
        assert len(env.truths) == 30
        assert env.classifier is not None
        truth_acc = np.mean([
            env.truths[i] == dataset.labels[i] for i in range(30)
        ])
        assert truth_acc > 0.7

    def test_pm_mode_skips_classifier(self):
        env, _, platform = make_env(inference_method="pm")
        platform.ask_batch((i, [0, 1, 2]) for i in range(30))
        env.infer_truths()
        assert len(env.truths) == 30
        assert env.classifier is None

    def test_quality_estimates_updated(self):
        env, _, platform = make_env()
        before = platform.pool.estimated_qualities().copy()
        platform.ask_batch((i, [0, 1, 2, 3]) for i in range(40))
        env.infer_truths()
        after = platform.pool.estimated_qualities()
        assert not np.allclose(before, after)
        # The expert should be estimated as the best annotator.
        assert after.argmax() == 3


class TestJointState:
    def test_one_joint_inference_and_classifier_per_episode(self):
        built = []

        def factory(n_features, n_classes, rng):
            clf = default_classifier_factory(n_features, n_classes, rng)
            built.append(clf)
            return clf

        env, _, platform = make_env(classifier_factory=factory)
        platform.ask_batch((i, [0, 1, 2]) for i in range(20))
        env.infer_truths()
        joint = env._joint
        assert joint is not None and len(built) == 1
        assert env.classifier is built[0] is joint.fitted_classifier
        weights = env.classifier.weight.copy()
        platform.ask_batch((i, [0, 1, 2]) for i in range(20, 40))
        env.infer_truths()
        env.train_and_enrich()
        assert env._joint is joint and len(built) == 1
        # The jointly fitted phi is the one enrichment uses, refitted in
        # place from its previous weights.
        assert env.classifier is built[0]
        assert not np.array_equal(env.classifier.weight, weights)

    def test_rerun_without_new_answers_stops_at_once(self):
        env, _, platform = make_env(inference_max_iter=200)
        platform.ask_batch((i, [0, 1, 2]) for i in range(30))
        first = env.infer_truths()
        second = env.infer_truths()
        assert first.converged and second.iterations <= 2
        assert second.labels == first.labels


class TestEnrichment:
    def test_no_enrichment_below_truth_threshold(self):
        env, _, platform = make_env(min_truths_for_enrichment=20)
        platform.ask_batch((i, [0, 1, 2]) for i in range(10))
        env.infer_truths()
        assert env.train_and_enrich() == []

    def test_enriches_confident_objects(self):
        env, dataset, platform = make_env(min_truths_for_enrichment=20)
        platform.ask_batch((i, [0, 1, 2, 3]) for i in range(30))
        env.infer_truths()
        newly = env.train_and_enrich()
        assert newly  # separable data: classifier confident on the rest
        for object_id in newly:
            assert object_id not in env.truths
        enriched_acc = np.mean([
            env.enriched[i] == dataset.labels[i] for i in newly
        ])
        assert enriched_acc > 0.8

    def test_nonsticky_recomputes(self):
        env, _, platform = make_env(min_truths_for_enrichment=20,
                                    sticky_enrichment=False)
        platform.ask_batch((i, [0, 1, 2, 3]) for i in range(30))
        env.infer_truths()
        env.train_and_enrich()
        env.enriched[999] = 1  # plant a stale entry (fake id is fine)
        env.train_and_enrich()
        assert 999 not in env.enriched

    def test_sticky_keeps_previous(self):
        env, _, platform = make_env(min_truths_for_enrichment=20,
                                    sticky_enrichment=True)
        platform.ask_batch((i, [0, 1, 2, 3]) for i in range(30))
        env.infer_truths()
        first = set(env.train_and_enrich())
        again = set(env.train_and_enrich())
        assert first.isdisjoint(again)
        assert first <= set(env.enriched)

    def test_single_class_truths_skip_enrichment(self):
        env, _, platform = make_env()
        platform.ask_batch((i, [3]) for i in range(25))  # expert answers
        env.infer_truths()
        env.truths = {i: 0 for i in range(25)}  # force single class
        assert env.train_and_enrich() == []

    def test_hard_margin_blocks_enrichment(self):
        env, _, platform = make_env(separation=0.1,
                                    min_truths_for_enrichment=20,
                                    enrichment_margin=0.95)
        platform.ask_batch((i, [0, 1, 2]) for i in range(30))
        env.infer_truths()
        assert env.train_and_enrich() == []


class TestViews:
    def test_classifier_proba_none_before_training(self):
        env, _, _ = make_env()
        assert env.classifier_proba() is None

    def test_current_labels_truths_override_enriched(self):
        env, _, _ = make_env()
        env.enriched = {0: 1}
        env.truths = {0: 0}
        assert env.current_labels()[0] == 0

    def test_feature_count_mismatch_raises(self):
        dataset = make_blobs(10, 4, rng=0)
        pool = build_pool()
        platform = CrowdPlatform(dataset.labels, pool, BudgetManager(10.0))
        with pytest.raises(ConfigurationError):
            Environment(platform, dataset.features[:5], CrowdRLConfig())
