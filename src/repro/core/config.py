"""Configuration for the CrowdRL framework.

Defaults follow the paper's experimental setting (Section VI-B1):
``alpha = 0.05`` initial sampling, 3 annotators per selected object (the
running example's k), worker/expert costs 1/10, enrichment margin 0.2
(Example after Algorithm 1), discount ``gamma = 0.95``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional  # noqa: F401 (Optional used in fields)

from repro.classifiers.base import Classifier
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.core.reward import RewardWeights
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike

ClassifierFactory = Callable[[int, int, SeedLike], Classifier]


def default_classifier_factory(n_features: int, n_classes: int,
                               rng: SeedLike = None) -> Classifier:
    """Default ``phi``: logistic regression (fast, convex, soft-label aware).

    The environment calls the factory once per episode for the joint EM's
    ``phi``, whose refits then continue from the previous weights, and
    once per fresh fit elsewhere (the PM enrichment retrain, baselines),
    where the new instance starts from zero.  The paper uses a small
    fully-connected network; swap in
    :class:`repro.classifiers.mlp.MLPClassifier` via
    :attr:`CrowdRLConfig.classifier_factory` to match it exactly (slower).
    """
    del rng  # logistic regression is deterministic
    # Moderate L2 keeps small-sample confidence honest, which matters for
    # the enrichment margin test.
    return LogisticRegressionClassifier(n_features, n_classes, l2=0.02)


@dataclass
class CrowdRLConfig:
    """All CrowdRL knobs.

    Attributes
    ----------
    alpha:
        Initial sampling rate — fraction of objects labelled up-front
        (Algorithm 1 line 2).
    k_per_object:
        Annotators assigned per selected object (Section IV Discussion).
    batch_size:
        Objects selected per labelling iteration.
    reward:
        Weights (lambda, eta) and discounting for the reward signal.
    enrichment_margin:
        Top-2 class-probability gap epsilon above which the classifier may
        label an object (Algorithm 1 lines 9-13).
    expert_floor:
        Lower bound on experts' diagonal confusion entries in joint
        inference (Section V-A2).
    classifier_weight:
        Weight of the classifier term in joint inference; 0 disables it
        (the M3 ablation replaces joint inference entirely).
    dqn_hidden / dqn_learning_rate / replay_capacity / dqn_batch_size /
    target_sync_every / train_steps_per_iteration:
        DQN hyper-parameters (Section IV-A).
    double_dqn / prioritized_replay:
        The DQN variants Section IV-B says "can also be integrated into
        our framework" (refs [38] and [30]); both off by default to match
        the paper's "classical design of DQN".
    ucb_exploration:
        Use the Eq. 6 UCB1 bonus for action selection; plain greedy when
        False.
    ucb_bonus_cap:
        Ceiling on the UCB1 bonus.  Never-tried pairs carry an infinite
        bonus; capping keeps ``-inf`` action masks decisive and the bonus
        comparable with the ~1-scale rewards.  Raise it to explore harder,
        lower it toward 0 to trust the Q-values sooner.
    tie_jitter_scale:
        Standard deviation of the Gaussian jitter that breaks score ties
        (ubiquitous early on, when every untried pair carries the same
        capped bonus).  ``0`` disables the jitter — and its RNG draw —
        entirely, making the argmax deterministic given equal scores.
    min_labels_for_classifier:
        Labelled-set size below which ``phi`` is not trained (enrichment
        and the classifier E-step term are skipped).
    min_truths_for_enrichment:
        Human-inferred truths required before the classifier may enrich —
        guards against an overconfident classifier trained on a handful of
        cold-start labels auto-labelling the whole dataset.
    sticky_enrichment:
        When True, enrichment labels are permanent once assigned (the
        strictest reading of Algorithm 1); the default recomputes them from
        the freshly retrained classifier every iteration, so early
        enrichment mistakes are corrected as ``phi`` improves.
    max_iterations:
        Safety cap on labelling iterations.
    classifier_factory:
        Builds a fresh ``phi`` given (n_features, n_classes, rng): once per
        episode for joint inference, once per fit for fresh retrains.
    info_gain_weight / agreement_weight / pair_cost_weight:
        Dense per-action reward shaping added to the paper's iteration-level
        reward so the DQN gets a learnable signal within one episode (the
        paper trains its policy offline at length; see DESIGN.md):
        uncertainty reduction at the labelled object, the annotator's
        agreement with the inferred truth, and the annotator's cost.
        Setting all three to 0 recovers the paper's bare reward.
    max_experts_per_object:
        Cap on experts assigned to one object (default 1; ``None`` removes
        the cap).  The per-pair Q-scores cannot express the diminishing
        marginal value of a second expert on the same object, so an
        uncapped top-k can burn budget on expert-heavy triads; the cap is
        the standard "one expert review per item" composition constraint.
    demo_probability:
        Probability per iteration of acting from the uncertainty+quality
        demonstration heuristic instead of the Q-scores.  Used only during
        offline cross-training (``CrowdRL.pretrain`` raises it), seeding
        the replay buffer with good trajectories the Q-network then
        regresses onto — standard learning-from-demonstration for DQN cold
        starts.  Zero during evaluation runs.
    ts_mode / ta_mode:
        ``"q"`` uses the DQN for task selection / assignment; ``"random"``
        replaces that half with uniform choice — the paper's M1 (random TS)
        and M2 (random TA) ablations (Fig. 8).
    inference_method:
        ``"joint"`` is the paper's model; ``"pm"`` swaps in the PM
        algorithm — the M3 ablation.
    """

    alpha: float = 0.05
    k_per_object: int = 3
    batch_size: int = 4
    reward: RewardWeights = field(default_factory=RewardWeights)
    enrichment_margin: float = 0.2
    expert_floor: float = 0.9
    classifier_weight: float = 1.0
    inference_max_iter: int = 25
    dqn_hidden: tuple[int, ...] = (64, 32)
    dqn_learning_rate: float = 1e-3
    replay_capacity: int = 5000
    dqn_batch_size: int = 32
    target_sync_every: int = 20
    train_steps_per_iteration: int = 8
    double_dqn: bool = False
    prioritized_replay: bool = False
    ucb_exploration: bool = True
    ucb_bonus_cap: float = 2.0
    tie_jitter_scale: float = 1e-3
    next_state_sample: int = 64
    min_labels_for_classifier: int = 8
    min_truths_for_enrichment: int = 20
    sticky_enrichment: bool = False
    max_iterations: int = 10_000
    classifier_factory: ClassifierFactory = default_classifier_factory
    info_gain_weight: float = 0.5
    agreement_weight: float = 0.5
    pair_cost_weight: float = 0.08
    demo_probability: float = 0.0
    max_experts_per_object: Optional[int] = 1
    ts_mode: str = "q"
    ta_mode: str = "q"
    inference_method: str = "joint"

    def __post_init__(self) -> None:
        if self.ts_mode not in ("q", "random"):
            raise ConfigurationError(
                f"ts_mode must be 'q' or 'random', got {self.ts_mode!r}"
            )
        if self.ta_mode not in ("q", "random"):
            raise ConfigurationError(
                f"ta_mode must be 'q' or 'random', got {self.ta_mode!r}"
            )
        if min(self.info_gain_weight, self.agreement_weight,
               self.pair_cost_weight) < 0:
            raise ConfigurationError("reward shaping weights must be >= 0")
        if (self.max_experts_per_object is not None
                and self.max_experts_per_object < 0):
            raise ConfigurationError(
                f"max_experts_per_object must be >= 0 or None, got "
                f"{self.max_experts_per_object}"
            )
        if not 0.0 <= self.demo_probability <= 1.0:
            raise ConfigurationError(
                f"demo_probability must be in [0, 1], got {self.demo_probability}"
            )
        if self.inference_method not in ("joint", "pm"):
            raise ConfigurationError(
                f"inference_method must be 'joint' or 'pm', got "
                f"{self.inference_method!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_per_object <= 0:
            raise ConfigurationError(
                f"k_per_object must be > 0, got {self.k_per_object}"
            )
        if self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be > 0, got {self.batch_size}"
            )
        if not 0.0 < self.enrichment_margin < 1.0:
            raise ConfigurationError(
                f"enrichment_margin must be in (0, 1), got {self.enrichment_margin}"
            )
        if not 0.0 < self.expert_floor < 1.0:
            raise ConfigurationError(
                f"expert_floor must be in (0, 1), got {self.expert_floor}"
            )
        if self.classifier_weight < 0:
            raise ConfigurationError(
                f"classifier_weight must be >= 0, got {self.classifier_weight}"
            )
        if self.max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be > 0, got {self.max_iterations}"
            )
        if self.train_steps_per_iteration < 0:
            raise ConfigurationError(
                f"train_steps_per_iteration must be >= 0, got "
                f"{self.train_steps_per_iteration}"
            )
        if self.next_state_sample <= 0:
            raise ConfigurationError(
                f"next_state_sample must be > 0, got {self.next_state_sample}"
            )
        if self.ucb_bonus_cap <= 0:
            raise ConfigurationError(
                f"ucb_bonus_cap must be > 0, got {self.ucb_bonus_cap}"
            )
        if self.tie_jitter_scale < 0:
            raise ConfigurationError(
                f"tie_jitter_scale must be >= 0, got {self.tie_jitter_scale}"
            )
