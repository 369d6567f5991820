"""Which public ``repro`` calls the traced run wraps, and under what span name.

Each name in :data:`RUN_SPANS` and :data:`SETUP_SPANS` is one layer
boundary.  A span's metrics are ``<name>.calls``, ``<name>.s``
(inclusive time) and ``<name>.self_s`` (time not covered by a nested
traced call).  ``datasets.load`` and ``setup.pretrain`` run before the
first collect request, so they are reported from the set-up window;
every other span from the online run.
"""

from __future__ import annotations

import os

from tracing import Tracer

#: Span names reported from the online run, in report order.
RUN_SPANS = (
    "core.environment.infer",
    "core.environment.enrich",
    "core.agent.act",
    "core.agent.train",
    "core.state.featurize",
    "inference.joint",
    "inference.pm",
    "classifiers.fit",
    "classifiers.fit_soft",
    "classifiers.predict_proba",
    "crowd.ask_batch",
    "harness.checkpoint.save",
    "obs.events.emit",
    "obs.events.write",
    "serve.start",
    "serve.deliver",
    "serve.submit",
    "analysis.project",
    "analysis.flow",
    "analysis.lint",
)

#: Span names reported from the set-up window (inclusive time only).
SETUP_SPANS = ("datasets.load", "setup.pretrain")


def _count_em(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("inference.joint.em_sweeps", result.iterations)
    tracer.count("inference.joint.converged", 1.0 if result.converged else 0.0)


def _count_checkpoint_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("harness.checkpoint.bytes", os.path.getsize(args[0].path))


def _count_event_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("obs.events.bytes", os.path.getsize(args[0].path))


def _subclasses(cls: type) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; undo with ``tracer.uninstall()``."""
    # Imported here so that the untraced run never touches these modules
    # beyond what the workload itself imports.
    import repro.analysis.flow as flow
    import repro.analysis.lint.engine as lint_engine
    import repro.datasets.registry as registry
    from repro.analysis.flow.project import Project
    from repro.classifiers.base import Classifier
    from repro.core.agent import Agent
    from repro.core.environment import Environment
    from repro.core.framework import CrowdRL
    from repro.core.state import LabellingState
    from repro.crowd.faults import UnreliablePlatform
    from repro.crowd.platform import CrowdPlatform
    from repro.crowd.resilient import ResilientCollector
    from repro.harness.checkpoint import CheckpointRecorder
    from repro.inference.joint import JointInference
    from repro.inference.pm import PMInference
    from repro.obs.events import JsonlEventLog
    from repro.serve.platform import AsyncPlatform
    from repro.serve.session import LabellingSession

    tracer.patch_function(registry.load_dataset, "datasets.load")
    tracer.patch_method(CrowdRL, "pretrain", "setup.pretrain")
    tracer.patch_method(Environment, "infer_truths", "core.environment.infer")
    tracer.patch_method(Environment, "train_and_enrich",
                        "core.environment.enrich")
    tracer.patch_method(Agent, "act", "core.agent.act")
    tracer.patch_method(Agent, "train", "core.agent.train")
    for attr in ("feature_tensor", "object_features", "annotator_features",
                 "global_features"):
        tracer.patch_method(LabellingState, attr, "core.state.featurize")
    tracer.patch_method(JointInference, "infer", "inference.joint", _count_em)
    tracer.patch_method(PMInference, "infer", "inference.pm")
    for cls in _subclasses(Classifier):
        for attr in ("fit", "fit_soft", "predict_proba"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, f"classifiers.{attr}")
    # The outermost collection entry point of each crowd-layer class; the
    # serving adapter calls ``ask`` once per pair instead of ``ask_batch``.
    tracer.patch_method(CrowdPlatform, "ask_batch", "crowd.ask_batch")
    for cls in (UnreliablePlatform, ResilientCollector):
        for attr in ("ask", "ask_batch"):
            tracer.patch_method(cls, attr, "crowd.ask_batch")
    tracer.patch_method(CheckpointRecorder, "save", "harness.checkpoint.save",
                        _count_checkpoint_bytes)
    tracer.patch_method(JsonlEventLog, "emit", "obs.events.emit")
    tracer.patch_method(JsonlEventLog, "flush", "obs.events.write",
                        _count_event_bytes)
    tracer.patch_method(LabellingSession, "start", "serve.start")
    tracer.patch_method(LabellingSession, "deliver", "serve.deliver")
    tracer.patch_method(AsyncPlatform, "submit_batch", "serve.submit")
    tracer.patch_method(Project, "load", "analysis.project")
    tracer.patch_function(flow.analyze_project, "analysis.flow")
    tracer.patch_function(lint_engine.lint_file, "analysis.lint")
