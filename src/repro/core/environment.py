"""The Environment: joint truth inference, enrichment, quality updates.

Section V: on each iteration the environment (1) retrains the classifier on
the current labelled set and enriches the labelled set with the classifier's
confident predictions (Algorithm 1 lines 4-14), (2) after new answers
arrive, runs the joint truth-inference model over all answered objects, and
(3) refreshes the learning-side annotator-quality estimates that feed the
State's quality column.

An environment lives for one episode.  It builds its joint-inference state
(one :class:`~repro.inference.joint.JointInference` and its classifier) the
first time the joint path applies and re-runs that same state on every later
iteration, so each EM warm-starts from the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier
from repro.core.config import CrowdRLConfig
from repro.crowd.platform import CrowdPlatform
from repro.exceptions import ConfigurationError
from repro.inference.base import InferenceResult
from repro.inference.joint import JointInference
from repro.inference.majority import MajorityVote
from repro.inference.pm import PMInference
from repro.obs import phase_timer
from repro.utils.rng import SeedLike, as_rng


@dataclass
class EnvironmentFeedback:
    """What one environment step hands back to the agent."""

    newly_enriched: list[int] = field(default_factory=list)
    inference: Optional[InferenceResult] = None


class Environment:
    """Couples the platform with joint inference and enrichment."""

    def __init__(
        self,
        platform: CrowdPlatform,
        features: np.ndarray,
        config: CrowdRLConfig,
        rng: SeedLike = None,
    ) -> None:
        features = np.asarray(features, dtype=float)
        if features.shape[0] != platform.n_objects:
            raise ConfigurationError(
                f"features cover {features.shape[0]} objects, platform has "
                f"{platform.n_objects}"
            )
        self.platform = platform
        self.features = features
        self.config = config
        self._rng = as_rng(rng)
        self.classifier: Optional[Classifier] = None
        #: The episode's joint-EM state, built on first use.
        self._joint: Optional[JointInference] = None
        #: Inferred labels for human-answered objects.
        self.truths: dict[int, int] = {}
        #: Posteriors backing those labels.
        self.posteriors: dict[int, np.ndarray] = {}
        #: Labels the classifier assigned during enrichment.
        self.enriched: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Truth inference (Section V-A)
    # ------------------------------------------------------------------
    def infer_truths(self) -> InferenceResult:
        """Run joint inference over every human-answered object.

        Falls back to majority voting while the labelled set is too small
        to train the classifier (the joint model needs a usable ``phi``).
        """
        with phase_timer("infer"):
            return self._infer_truths()

    def _infer_truths(self) -> InferenceResult:
        """Untimed body of :meth:`infer_truths`."""
        history = self.platform.history
        answered = history.answered_objects()
        answers = {int(i): history.answers_for(int(i)) for i in answered}
        if not answers:
            return InferenceResult(posteriors={}, labels={})

        if self.config.inference_method == "pm":
            result = PMInference().infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )
        elif (
            self.config.classifier_weight > 0
            and len(answers) >= self.config.min_labels_for_classifier
        ):
            if self._joint is None:
                self._joint = JointInference(
                    self.config.classifier_factory(
                        self.features.shape[1], self.platform.n_classes,
                        self._rng,
                    ),
                    self.features,
                    expert_mask=self.platform.pool.expert_mask,
                    expert_floor=self.config.expert_floor,
                    classifier_weight=self.config.classifier_weight,
                    max_iter=self.config.inference_max_iter,
                )
            result = self._joint.infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )
            if self._joint.fitted_classifier is not None:
                self.classifier = self._joint.fitted_classifier
        else:
            result = MajorityVote(rng=self._rng).infer(
                answers, self.platform.n_classes, len(self.platform.pool)
            )

        self.truths = dict(result.labels)
        self.posteriors = dict(result.posteriors)
        # Refresh the State's estimated-quality column; joint inference's own
        # matrices are the better estimate when available.
        if result.confusions:
            for j, confusion in result.confusions.items():
                self.platform.pool.set_estimate(j, confusion)
        else:
            self.platform.pool.update_estimates(history, self.truths)
        return result

    # ------------------------------------------------------------------
    # Labelled-set enrichment (Algorithm 1 lines 4-14)
    # ------------------------------------------------------------------
    def train_and_enrich(self) -> list[int]:
        """Retrain ``phi`` on the labelled set, then auto-label confident objects.

        Returns the ids labelled by the classifier this iteration.  Objects
        whose top-2 probability gap is at most the enrichment margin epsilon
        stay unlabelled (Algorithm 1 lines 10-11).  Unless
        ``sticky_enrichment`` is set, previous enrichment labels are
        recomputed from the freshly trained classifier, so early mistakes
        heal as ``phi`` improves.
        """
        with phase_timer("enrich"):
            return self._train_and_enrich()

    def _train_and_enrich(self) -> list[int]:
        """Untimed body of :meth:`train_and_enrich`."""
        if not self.config.sticky_enrichment:
            self.enriched.clear()
        if len(self.truths) < self.config.min_truths_for_enrichment:
            return []
        labelled = {**self.enriched, **self.truths}  # truths win on overlap
        if len(labelled) < self.config.min_labels_for_classifier:
            return []
        ids = np.fromiter(labelled.keys(), dtype=int)
        y = np.fromiter(labelled.values(), dtype=int)
        if np.unique(y).size < 2:
            return []  # classifier needs at least two observed classes

        if (
            self.classifier is None
            or self.config.classifier_weight == 0
            or self.config.inference_method != "joint"
        ):
            # No jointly fitted classifier available — fit a fresh one.
            self.classifier = self.config.classifier_factory(
                self.features.shape[1], self.platform.n_classes, self._rng
            )
            with phase_timer("enrich.retrain"):
                self.classifier.fit(self.features[ids], y)

        keep = np.ones(self.platform.n_objects, dtype=bool)
        keep[ids] = False
        unlabelled = np.flatnonzero(keep)
        if unlabelled.size == 0:
            return []
        proba = self.classifier.predict_proba(self.features[unlabelled])
        part = np.partition(proba, -2, axis=1)
        margins = part[:, -1] - part[:, -2]
        # Vectorized margin test + argmax replaces the per-row Python loop;
        # `confident` is ascending, preserving the old insertion order.
        confident = np.flatnonzero(margins > self.config.enrichment_margin)
        labels = proba[confident].argmax(axis=1)
        newly = [int(i) for i in unlabelled[confident]]
        self.enriched.update(zip(newly, (int(c) for c in labels)))
        return newly

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def classifier_proba(self) -> Optional[np.ndarray]:
        """Class probabilities for all objects, or None before first training."""
        if self.classifier is None:
            return None
        return self.classifier.predict_proba(self.features)

    def current_labels(self) -> dict[int, int]:
        """All labels so far; human-inferred truths override enrichment."""
        return {**self.enriched, **self.truths}
