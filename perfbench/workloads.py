"""The benchmark's four workloads, one rep at a time.

A *rep* is one whole run on one seeded draw: set-up (dataset
generation, platform and pool construction, offline cross-training),
then the online run up to the returned outcomes, then the correctness
checks.  Every labelling rep is a closed loop: an episode (or a served
session) waits for its own answers before it issues its next request.

Probes that define the end-to-end timings sit at the public extension
points the program offers: ``ExperimentSpec.platform_hook`` for the
sync driver and the serving adapter's ``submit_batch``/``mark_delivered``
for sessions.  They take two clock reads per batch and are present in
traced and untraced reps alike.

Durations are process CPU time.  The program is single-threaded (BLAS
pinned to one thread), so CPU time equals wall time except while the
process waits: on a shared host, for the scheduler and for the disk,
whose stalls made `fashion-pm-journal` runs take half as long again
for minutes at a time while their CPU time held.  Wall-clock readings still place
each rep on the shared timeline, for the host-speed monitor and for
traced spans.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from corpus import write_corpus
from tracing import Tracer

#: Wall clock: places reps and spans on the timeline shared across processes.
clock = time.perf_counter
#: What the end-to-end timings count.
cpu_clock = time.process_time


@dataclass
class Marks:
    """Timestamps and decide samples one rep's probes collect."""

    tracer: Optional[Tracer] = None
    rep_id: str = ""
    #: Set up from cold: drop what the program caches per process first.
    cold: bool = True
    #: Wall-clock marks (:data:`clock`).
    setup_start: float = 0.0
    run_start: Optional[float] = None
    run_end: Optional[float] = None
    #: The same marks in CPU time (:data:`cpu_clock`).
    cpu_marks: List[float] = field(default_factory=list)
    decide: List[float] = field(default_factory=list)

    def begin_setup(self) -> None:
        self.setup_start = clock()
        self.cpu_marks = [cpu_clock()]
        if self.tracer is not None:
            self.tracer.run_id = f"{self.rep_id}:setup"

    def begin_run(self) -> None:
        self.run_start = clock()
        self.cpu_marks.append(cpu_clock())
        if self.tracer is not None:
            self.tracer.run_id = f"{self.rep_id}:run"

    def end_run(self) -> None:
        if self.run_end is None:
            self.run_end = clock()
            self.cpu_marks.append(cpu_clock())

    @property
    def setup_s(self) -> float:
        return self.cpu_marks[1] - self.cpu_marks[0]

    @property
    def run_s(self) -> float:
        return self.cpu_marks[2] - self.cpu_marks[1]


@dataclass
class RepResult:
    """What one rep measured and checked."""

    setup_s: float
    run_s: float
    decide_s: List[float]
    answers: int
    requested: int
    accuracy: float
    f1: float
    #: Deterministic outputs; every rep of the same draw must repeat them.
    fingerprint: tuple
    #: Layer counts read from the program's own books (reported when traced).
    counts: Dict[str, float]
    errors: List[str]
    setup_window: tuple = (0.0, 0.0)
    run_window: tuple = (0.0, 0.0)


def _label_errors(outcome, n_objects: int, n_classes: int) -> List[str]:
    """Every object has a final label in range, and spent <= budget."""
    errors = []
    labels = np.asarray(outcome.final_labels)
    if labels.shape != (n_objects,):
        errors.append(f"final labels cover {labels.shape}, expected ({n_objects},)")
    elif labels.min() < 0 or labels.max() >= n_classes:
        errors.append("a final label is out of range")
    if not outcome.spent <= outcome.budget:
        errors.append(f"spent {outcome.spent} exceeds budget {outcome.budget}")
    return errors


def _collector_counts(stats: dict) -> Dict[str, float]:
    failed_attempts = sum(stats.get("faults", {}).values())
    return {
        "crowd.answers": stats["answers"],
        "crowd.retries": stats["retries"],
        "crowd.gave_up": stats["gave_up"],
        "crowd.attempts": stats["answers"] + failed_attempts,
    }


# ----------------------------------------------------------------------
# Sync labelling runs through the harness (s12cp-joint, fashion-pm-journal)
# ----------------------------------------------------------------------
def _decide_probe(marks: Marks):
    """A platform hook timing the framework between answer batches."""
    from repro.crowd.faults import PlatformWrapper

    class DecideProbe(PlatformWrapper):
        """Outermost platform layer: timestamps each ``ask_batch``."""

        def __init__(self, inner) -> None:
            super().__init__(inner)
            self.batches: List[list] = []
            self._returned: Optional[float] = None

        def ask_batch(self, assignments):
            now = cpu_clock()
            if self._returned is None:
                marks.begin_run()
            else:
                marks.decide.append(now - self._returned)
            records = self.inner.ask_batch(assignments)
            self.batches.append(list(records))
            self._returned = cpu_clock()
            return records

        def evaluation_labels(self):
            # The harness asks for ground truth only to score the finished
            # run, so this call marks the end of the online run.
            marks.end_run()
            return self.inner.evaluation_labels()

    holder = {}

    def hook(platform):
        holder["probe"] = DecideProbe(platform)
        return holder["probe"]

    return hook, holder


def _journal_errors(path: Path, batches: List[list], every: int) -> List[str]:
    """The journal reloads and holds exactly the answers up to its last save."""
    from repro.harness.checkpoint import load_checkpoint

    expected, since, total = [], 0, 0
    saved_upto = 0
    for batch in batches:
        total += len(batch)
        since += len(batch)
        if since >= every:
            saved_upto, since = total, 0
    flat = [r for batch in batches for r in batch]
    for record in flat[:saved_upto]:
        expected.append((record.object_id, record.annotator_id, record.answer))
    checkpoint = load_checkpoint(path)
    journalled = [
        tuple(r[:3]) for b in checkpoint.batches for r in b.records
    ]
    errors = []
    if checkpoint.n_answers != saved_upto:
        errors.append(f"journal n_answers {checkpoint.n_answers}, answers "
                      f"collected up to the last save {saved_upto}")
    if journalled != expected:
        errors.append("journal records differ from the answers collected")
    if total - saved_upto >= every:
        errors.append("answers past the last save exceed the cadence")
    return errors


@dataclass(frozen=True)
class SyncConfig:
    framework: str
    dataset: str
    scale: float
    faults: Optional[float]
    journal: bool
    metrics: bool


def sync_rep(cfg: SyncConfig, seed: int, marks: Marks, workdir: Path) -> RepResult:
    """One harness run of ``cfg`` on draw ``seed``."""
    import repro.harness.experiment as experiment

    if marks.cold:
        experiment.clear_pretrained_policies()
    hook, holder = _decide_probe(marks)
    workdir.mkdir(parents=True, exist_ok=True)
    journal = workdir / "journal.ckpt"
    spec = experiment.ExperimentSpec(
        faults=cfg.faults,
        checkpoint_path=str(journal) if cfg.journal else None,
        metrics=cfg.metrics,
        metrics_out=str(workdir / "metrics.jsonl") if cfg.metrics else None,
        platform_hook=hook,
    )
    setting = experiment.ExperimentSetting(cfg.dataset, scale=cfg.scale,
                                           seed=seed)
    marks.begin_setup()
    result = experiment.run_experiment(cfg.framework, setting, spec)
    probe = holder["probe"]
    outcome = result.outcome
    answers = sum(len(b) for b in probe.batches)
    stats = outcome.extras.get("collector")
    if stats is None:
        stats = {"answers": answers, "retries": 0, "gave_up": 0, "faults": {}}
    counts = _collector_counts(stats)
    errors = _label_errors(outcome, probe.n_objects, probe.n_classes)
    if stats["answers"] != answers:
        errors.append(f"collector counted {stats['answers']} answers, the "
                      f"framework received {answers}")
    if result.report.n_evaluated != probe.n_objects:
        errors.append("the report does not cover every object")
    if cfg.journal:
        errors += _journal_errors(journal, probe.batches, spec.checkpoint_every)
    report = result.report
    return RepResult(
        setup_s=marks.setup_s,
        run_s=marks.run_s,
        decide_s=marks.decide,
        answers=answers,
        requested=answers + int(stats["gave_up"]),
        accuracy=report.accuracy,
        f1=report.f1,
        fingerprint=(report.accuracy, report.f1, outcome.spent,
                     outcome.iterations, answers),
        counts=counts,
        errors=errors,
        setup_window=(marks.setup_start, marks.run_start),
        run_window=(marks.run_start, marks.run_end),
    )


# ----------------------------------------------------------------------
# Multi-tenant serving (serve-tenants)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    projects: int
    scale: float
    budget: float
    faults: float
    max_active: int


def _probe_session(platform, marks: Marks) -> None:
    """Time each session from its batch's last delivery to its next submit."""
    submit, mark = platform.submit_batch, platform.mark_delivered
    delivered = [None]

    def submit_batch(assignments):
        now = cpu_clock()
        if delivered[0] is not None:
            marks.decide.append(now - delivered[0])
            delivered[0] = None
        return submit(assignments)

    def mark_delivered(pending):
        record = mark(pending)
        delivered[0] = cpu_clock()
        return record

    platform.submit_batch = submit_batch
    platform.mark_delivered = mark_delivered


def serve_rep(cfg: ServeConfig, seed: int, marks: Marks,
              workdir: Path) -> RepResult:
    """One :class:`ServeEngine` run: ``cfg.projects`` CrowdRL S12CP sessions."""
    import repro.datasets.registry as registry
    from repro.crowd.pool import AnnotatorPool
    from repro.harness.experiment import ExperimentSetting, make_framework
    from repro.obs.report import budget_by_phase
    from repro.serve import LatencyModel, ServeEngine

    marks.begin_setup()
    datasets = [
        registry.load_dataset("S12CP", scale=cfg.scale, rng=seed + 100 + i)
        for i in range(cfg.projects)
    ]
    pool = AnnotatorPool.build(datasets[0].n_classes, 3, 2, rng=seed)
    latency = LatencyModel.for_pool(pool, worker_latency=1.0, rng=seed + 5000)
    engine = ServeEngine(pool, latency=latency, max_active=cfg.max_active)
    setting = ExperimentSetting("S12CP", scale=cfg.scale, seed=seed)
    sessions = []
    for i, dataset in enumerate(datasets):
        framework = make_framework("CrowdRL", setting, rng=seed + 200 + i)
        session = engine.add_project(
            f"project-{i:02d}", dataset, framework, budget=cfg.budget,
            faults=cfg.faults, seed=seed + i,
        )
        _probe_session(session.platform, marks)
        sessions.append(session)
    marks.begin_run()
    report = engine.run()
    marks.end_run()

    errors: List[str] = []
    totals = {"answers": 0, "retries": 0, "gave_up": 0, "faults": {}}
    spent = attributed = submitted = 0.0
    for session, result in zip(sessions, report.results):
        outcome = result.outcome
        errors += [f"{result.name}: {e}" for e in _label_errors(
            outcome, session.dataset.n_objects, session.dataset.n_classes)]
        session_attributed = sum(
            budget_by_phase(result.metrics["counters"]).values())
        if session_attributed != outcome.spent:
            errors.append(f"{result.name}: attributed {session_attributed} "
                          f"!= spent {outcome.spent}")
        spent += outcome.spent
        attributed += session_attributed
        submitted += result.metrics["counters"].get("serve.submitted", 0)
        stats = session.platform.inner.stats.as_dict()
        for key in ("answers", "retries", "gave_up"):
            totals[key] += stats[key]
        for kind, n in stats["faults"].items():
            totals["faults"][kind] = totals["faults"].get(kind, 0) + n
    granted = sum(report.grant_counts.values())
    if attributed != spent:
        errors.append(f"session attribution sums to {attributed}, engine "
                      f"total spent is {spent}")
    if not granted == submitted == totals["answers"]:
        errors.append(f"lease grants {granted}, submitted {submitted}, "
                      f"answers {totals['answers']} disagree")
    counts = _collector_counts(totals)
    counts.update({
        "serve.virtual_makespan_s": report.makespan,
        "serve.lease_wait_virtual_s": report.lease_wait_s,
        "serve.peak_active": report.peak_active,
    })
    n = len(report.results)
    accuracy = math.fsum(r.report.accuracy for r in report.results) / n
    f1 = math.fsum(r.report.f1 for r in report.results) / n
    return RepResult(
        setup_s=marks.setup_s,
        run_s=marks.run_s,
        decide_s=marks.decide,
        answers=totals["answers"],
        requested=totals["answers"] + totals["gave_up"],
        accuracy=accuracy,
        f1=f1,
        fingerprint=(accuracy, f1, spent, report.makespan,
                     tuple(sorted(report.grant_counts.items()))),
        counts=counts,
        errors=errors,
        setup_window=(marks.setup_start, marks.run_start),
        run_window=(marks.run_start, marks.run_end),
    )


# ----------------------------------------------------------------------
# Static analysis (analyze-src)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnalysisConfig:
    #: Package analysed, relative to the checkout's ``src`` directory.
    package: str
    corpus_modules: int


def analysis_rep(cfg: AnalysisConfig, seed: int, marks: Marks,
                 workdir: Path, src_root: Path) -> RepResult:
    """Lint + flow over the source tree (seeded file order) and a planted corpus."""
    import repro.analysis.flow as flow
    import repro.analysis.lint.engine as lint_engine
    from repro.analysis.flow.project import Project

    marks.begin_setup()
    package = src_root / cfg.package
    corpus = write_corpus(workdir / "corpus", seed, cfg.corpus_modules)
    files = list(lint_engine.iter_python_files([str(package)]))
    order = np.random.default_rng(seed).permutation(len(files))
    files = [str(files[i]) for i in order]
    rules = lint_engine.all_rules()
    baseline = flow.discover_baseline([str(package)])
    accepted = flow.load_baseline(baseline) if baseline is not None else set()

    marks.begin_run()
    src_lint: list = []
    for path in files:
        start = cpu_clock()
        src_lint += lint_engine.lint_file(path, rules)
        marks.decide.append(cpu_clock() - start)
    corpus_findings: list = []
    for module in corpus:
        start = cpu_clock()
        corpus_findings += lint_engine.lint_file(module.path, rules)
        marks.decide.append(cpu_clock() - start)
    src_flow = flow.analyze_project(Project.load(files))
    corpus_flow = flow.analyze_project(
        Project.load([str(m.path) for m in corpus]))
    marks.end_run()

    errors: List[str] = []
    if src_lint:
        errors.append(f"lint reports {len(src_lint)} finding(s) on "
                      f"{cfg.package}: {src_lint[0].format()}")
    if baseline is not None:
        new, _ = flow.split_by_baseline(src_flow, accepted,
                                        baseline.resolve().parent)
    else:
        new = src_flow
    if new:
        errors.append(f"flow reports {len(new)} new finding(s) on "
                      f"{cfg.package}: {new[0].format()}")
    fired: Dict[str, set] = {}
    for finding in corpus_findings + list(corpus_flow):
        fired.setdefault(Path(finding.path).name, set()).add(finding.rule_id)
    correct = tp = fp = fn = 0
    for module in corpus:
        rules_fired = fired.get(module.path.name, set())
        correct += rules_fired == module.planted
        flagged, planted = bool(rules_fired), bool(module.planted)
        tp += flagged and planted
        fp += flagged and not planted
        fn += planted and not flagged
    accuracy = correct / len(corpus)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    verdicts = 2 * (len(files) + len(corpus))
    return RepResult(
        setup_s=marks.setup_s,
        run_s=marks.run_s,
        decide_s=marks.decide,
        answers=verdicts,
        requested=verdicts,
        accuracy=accuracy,
        f1=f1,
        fingerprint=(accuracy, f1, len(src_flow),
                     tuple(sorted((k, tuple(sorted(v))) for k, v in fired.items()))),
        counts={"analysis.files": len(files) + len(corpus)},
        errors=errors,
        setup_window=(marks.setup_start, marks.run_start),
        run_window=(marks.run_start, marks.run_end),
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A named workload: how to run one rep on one draw.

    A run makes at least ``min_draws`` draws, and its quality metrics
    average over exactly those.  Each draw runs ``repeats`` times in a
    row; its times are the minimum over the repeats.  ``imports`` are the program modules the
    workload needs; their import time counts towards ``setup_s``.
    """

    name: str
    min_draws: int
    repeats: int
    rep: Callable
    imports: tuple = ()


def workloads(src_root: Path, smoke: bool = False) -> Dict[str, Workload]:
    """The four workloads at full size, or at a tiny smoke size for tests."""
    s12cp = SyncConfig("CrowdRL", "S12CP", 0.02 if smoke else 0.1,
                       faults=None, journal=False, metrics=False)
    # 10% faults, not 20%: at 20% the circuit breaker quarantines an
    # expert in about one draw in ten, which doubles that draw's answers
    # and run time, and answers_per_s then spread by 29% across seeds.
    fashion = SyncConfig("M3", "Fashion", 0.005 if smoke else 0.03,
                         faults=0.1, journal=True, metrics=True)
    # Budget 100 a project, not 200: one 16-session draw then takes about
    # 2 s instead of 4.5 s, so a run fits about 14 draws, and draws differ
    # in time by 15-20%.
    serve = ServeConfig(projects=3 if smoke else 16,
                        scale=0.02 if smoke else 0.05,
                        budget=60.0 if smoke else 100.0,
                        faults=0.1, max_active=2 if smoke else 4)
    analysis = AnalysisConfig("repro/serve" if smoke else "repro",
                              corpus_modules=8 if smoke else 40)
    harness = ("repro.harness.experiment",)
    # The labelling workloads run each draw once and take many small draws:
    # their times vary by 15-25% from draw to draw (joint-EM convergence,
    # fault draws), far more than the host adds, so the number of draws is
    # what keeps the run-to-run spread inside the bounds.  analyze-src does
    # almost the same work on every draw, so host noise is all it has; it
    # repeats one draw and keeps the fastest time.
    table = [
        Workload("s12cp-joint", 1 if smoke else 5, 1,
                 lambda seed, marks, work: sync_rep(s12cp, seed, marks, work),
                 harness),
        Workload("fashion-pm-journal", 1 if smoke else 5, 1,
                 lambda seed, marks, work: sync_rep(fashion, seed, marks, work),
                 harness),
        Workload("serve-tenants", 1 if smoke else 5, 1,
                 lambda seed, marks, work: serve_rep(serve, seed, marks, work),
                 harness + ("repro.serve",)),
        Workload("analyze-src", 1, 2 if smoke else 6,
                 lambda seed, marks, work: analysis_rep(
                     analysis, seed, marks, work, src_root),
                 ("repro.analysis.flow", "repro.analysis.lint.engine")),
    ]
    return {w.name: w for w in table}
