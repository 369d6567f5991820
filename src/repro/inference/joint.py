"""CrowdRL joint truth inference (paper Section V).

Rather than treating the trained classifier as "just another annotator"
(which compounds annotator noise with model bias), the joint model runs one
EM over three coupled unknowns:

* the latent true labels ``y_i`` (E-step posterior ``q(y_i)``),
* each annotator's confusion matrix ``Pi^j`` (M-step soft counts), and
* the classifier parameters ``Theta`` (M-step: retrain on soft labels).

E-step (Eq. 8's posterior):  ``q(y_i = c)  propto  p(y_i = c | phi(x_i);
Theta_last) * prod_j p(yhat_i^j | y_i = c, Pi^j_last)``.

M-step confusion update uses soft counts (the paper's hard-indicator
formula in the soft-posterior limit), and expert rows are bounded below so
an EM run cannot demote an expert (Section V-A2; see DESIGN.md for how we
resolve the garbled printed formula).

One :class:`JointInference` lives for a whole labelling episode and each
call warm-starts from the last (see the class docstring).  The classifier's
M-step takes gradient steps from the previous ``Theta`` instead of
maximising from scratch, so the procedure is a *generalised* EM: each
M-step improves, rather than maximises, the classifier term.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.contracts import prob_simplex, row_stochastic, shaped
from repro.classifiers.base import Classifier
from repro.crowd.confusion import ConfusionMatrix
from repro.exceptions import ConfigurationError
from repro.inference.base import AnswerMap, InferenceResult, TruthInference
from repro.obs import get_registry, phase_timer


@shaped(counts="(n_annotators, n_classes, n_classes)")
@row_stochastic(result=True)
def _m_step_confusions(counts: np.ndarray) -> np.ndarray:
    """M-step confusion update: normalise soft counts row-wise (Eq. 7).

    ``counts[j, c, l]`` is the smoothed soft count of annotator ``j``
    answering ``l`` on objects of (posterior) class ``c``; the result is
    the stack of row-stochastic confusion matrices ``Pi^j``.
    """
    return counts / counts.sum(axis=-1, keepdims=True)


@shaped(clf_log="(n_objects, n_classes)", result="(n_objects, n_classes)")
@prob_simplex(result=True)
def _e_step_posteriors(
    answers: AnswerMap,
    object_ids: list,
    prior: np.ndarray,
    clf_log: np.ndarray,
    confusions: np.ndarray,
) -> np.ndarray:
    """E-step posterior ``q(y_i = c)`` for every object (Eq. 8).

    Combines the (possibly learned) class prior, the classifier's
    log-probabilities and each answering annotator's confusion column in
    log space, then normalises per object onto the probability simplex.
    """
    log_post = np.log(prior + 1e-12)[None, :] + clf_log
    for row, oid in enumerate(object_ids):
        for annotator_id, answer in answers[oid].items():
            log_post[row] += np.log(confusions[annotator_id][:, answer] + 1e-12)
    log_post -= log_post.max(axis=1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=1, keepdims=True)


class JointInference(TruthInference):
    """EM over classifier parameters, confusion matrices and truths.

    The instance keeps the posteriors of its last :meth:`infer`.  The next
    call starts every object it has seen before from that posterior, and
    only new objects from majority vote.  Confusions and the classifier
    term are not carried over: the first M-step recomputes both from the
    starting posteriors.  The classifier itself is refitted in place, so a
    warm-starting classifier such as
    :class:`~repro.classifiers.logistic.LogisticRegressionClassifier`
    continues from the weights of the previous M-step.  Run on unchanged
    answers after a converged call, the EM therefore stops within a sweep
    or two at the same labels.

    Parameters
    ----------
    classifier:
        Any :class:`~repro.classifiers.base.Classifier`; refitted on soft
        labels every M-step (its final fit is exposed as
        :attr:`fitted_classifier` and doubles as the framework's ``phi``).
    features:
        ``(n_objects, n_features)`` matrix indexed by object id.
    expert_mask:
        Boolean per-annotator vector; ``True`` rows get quality bounding.
    expert_floor:
        Minimum diagonal confusion entry for experts (``1 - epsilon`` in the
        paper's notation; default 0.9).
    classifier_weight:
        Multiplier on the classifier's log-likelihood contribution in the
        E-step.  ``1.0`` is the paper's model; ``0.0`` disables the
        classifier (useful for ablations).
    classifier_clip:
        The classifier's probabilities are clipped into
        ``[1-clip, clip]`` before entering the E-step, so the classifier
        contributes like one reasonably good annotator instead of an
        infinitely confident one.  Without this the EM feedback loop
        (classifier trained on posteriors that the classifier itself
        shaped) can amplify early mistakes — the very composite-bias
        problem Section V warns about.
    max_iter / tol / smoothing:
        EM controls, matching :class:`~repro.inference.dawid_skene.DawidSkene`.
    learn_prior:
        When False (default) the class prior stays uniform.  Learning the
        prior jointly with the classifier term invites a slow runaway —
        each EM sweep tilts the prior a little further toward the majority
        posterior until everything collapses onto one class — so it is off
        unless the caller knows the classes are genuinely imbalanced.
    """

    def __init__(
        self,
        classifier: Classifier,
        features: np.ndarray,
        *,
        expert_mask: Optional[Sequence[bool]] = None,
        expert_floor: float = 0.9,
        classifier_weight: float = 1.0,
        classifier_clip: float = 0.8,
        max_iter: int = 30,
        tol: float = 1e-4,
        smoothing: float = 1.0,
        refit_every: int = 1,
        learn_prior: bool = False,
    ) -> None:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError(
                f"features must be 2-D, got shape {features.shape}"
            )
        if not 0.0 < expert_floor < 1.0:
            raise ConfigurationError(
                f"expert_floor must be in (0, 1), got {expert_floor}"
            )
        if classifier_weight < 0:
            raise ConfigurationError(
                f"classifier_weight must be >= 0, got {classifier_weight}"
            )
        if max_iter <= 0 or refit_every <= 0:
            raise ConfigurationError("max_iter and refit_every must be > 0")
        if not 0.5 < classifier_clip < 1.0:
            raise ConfigurationError(
                f"classifier_clip must be in (0.5, 1), got {classifier_clip}"
            )
        self.classifier_clip = classifier_clip
        self.classifier = classifier
        self.features = features
        self.expert_mask = (
            np.asarray(expert_mask, dtype=bool) if expert_mask is not None else None
        )
        self.expert_floor = expert_floor
        self.classifier_weight = classifier_weight
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing
        self.refit_every = refit_every
        self.learn_prior = learn_prior
        self.fitted_classifier: Optional[Classifier] = None
        #: Posteriors from the last :meth:`infer`, the next call's start.
        self._last_posteriors: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def infer(self, answers: AnswerMap, n_classes: int,
              n_annotators: int) -> InferenceResult:
        """Run the joint EM of Section V over ``answers`` (Eqs. 7-8)."""
        self._validate(answers, n_classes, n_annotators)
        if self.expert_mask is not None and self.expert_mask.size != n_annotators:
            raise ConfigurationError(
                f"expert_mask has {self.expert_mask.size} entries, expected "
                f"{n_annotators}"
            )
        object_ids = sorted(answers)
        if not object_ids:
            return InferenceResult(posteriors={}, labels={})
        for oid in object_ids:
            if not 0 <= oid < self.features.shape[0]:
                raise ConfigurationError(
                    f"object id {oid} has no feature row (features cover "
                    f"{self.features.shape[0]} objects)"
                )

        x = self.features[object_ids]

        # ---- Initialise q(y): last call's posterior, else majority vote ----
        post = np.zeros((len(object_ids), n_classes))
        for row, oid in enumerate(object_ids):
            previous = self._last_posteriors.get(oid)
            if previous is not None:
                post[row] = previous
                continue
            for answer in answers[oid].values():
                post[row, answer] += 1
            post[row] /= post[row].sum()

        confusions = np.full(
            (n_annotators, n_classes, n_classes), 1.0 / n_classes
        )
        prior = np.full(n_classes, 1.0 / n_classes)
        clf_log = np.zeros((len(object_ids), n_classes))  # classifier term

        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            # ---- M-step ----
            with phase_timer("infer.m_step"):
                # (a) Annotator confusion matrices from soft counts.
                counts = np.full(
                    (n_annotators, n_classes, n_classes), self.smoothing
                )
                prior_mass = np.full(n_classes, self.smoothing)
                for row, oid in enumerate(object_ids):
                    prior_mass += post[row]
                    for annotator_id, answer in answers[oid].items():
                        counts[annotator_id, :, answer] += post[row]
                confusions = _m_step_confusions(counts)
                if self.learn_prior:
                    prior = prior_mass / prior_mass.sum()

                # (b) Expert-quality bounding (Section V-A2).
                if self.expert_mask is not None:
                    for j in range(n_annotators):
                        if self.expert_mask[j]:
                            bounded = ConfusionMatrix(
                                confusions[j]
                            ).with_quality_floor(self.expert_floor)
                            confusions[j] = bounded.matrix

            # (c) Retrain the classifier on the soft posteriors.
            if self.classifier_weight > 0 and iteration % self.refit_every == 0:
                with phase_timer("infer.refit"):
                    self.classifier.fit_soft(x, post.copy())
                    self.fitted_classifier = self.classifier
                    proba = np.clip(
                        self.classifier.predict_proba(x),
                        1.0 - self.classifier_clip,
                        self.classifier_clip,
                    )
                    clf_log = self.classifier_weight * np.log(proba)

            # ---- E-step ----
            with phase_timer("infer.e_step"):
                new_post = _e_step_posteriors(
                    answers, object_ids, prior, clf_log, confusions
                )
            max_delta = float(np.abs(new_post - post).max())
            post = new_post

            if max_delta < self.tol:
                converged = True
                break

        registry = get_registry()
        registry.inc("infer.em_sweeps", iteration)
        if converged:
            registry.inc("infer.em_converged")
        else:
            registry.inc("infer.em_hit_max_iter")

        posteriors = {oid: post[row] for row, oid in enumerate(object_ids)}
        self._last_posteriors = posteriors
        seen = {
            j for oid in object_ids for j in answers[oid]
        }
        return InferenceResult(
            posteriors=posteriors,
            labels=self._posterior_to_labels(posteriors),
            confusions={j: ConfusionMatrix(confusions[j]) for j in seen},
            iterations=iteration,
            converged=converged,
        )
