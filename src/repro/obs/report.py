"""Render a per-phase time/call/budget table from a metrics JSONL file.

Backs ``python -m repro.obs report``: reads an event log written by
``run_experiment(..., metrics_out=...)`` (or any
:class:`~repro.obs.events.JsonlEventLog`), and summarises where the
episode's wall time and labelling budget went.  Phase names nest by dots:
``infer.refit`` runs inside ``infer``, so time shares are taken over the
top-level phases only and nesting phases also show their self time.

The final ``snapshot`` event is the preferred source (it carries the full
registry state: phase stats, counters, gauges); when a log carries only
raw ``phase`` events — e.g. a run killed before its final flush — the
report aggregates those instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.events import PathLike, read_events
from repro.utils.tables import format_table

#: Counter namespace whose suffixes attribute budget units to a phase,
#: e.g. ``budget.collect`` -> the ``collect`` row.
BUDGET_PREFIX = "budget."


def summarize_snapshot(snapshot: dict) -> dict:
    """Reduce a registry snapshot to the report's ``{phases, counters, gauges}``.

    Accepts the dict :meth:`repro.obs.MetricsRegistry.snapshot` returns
    (e.g. :attr:`RunResult.metrics`) and keeps only what the report
    renders; ``phases`` maps phase name to ``{"calls": int, "total_s":
    float}``.
    """
    phases = {
        name: {"calls": stat["calls"], "total_s": stat["total_s"]}
        for name, stat in snapshot.get("phases", {}).items()
    }
    return {
        "phases": phases,
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
    }


def load_summary(path: PathLike) -> dict:
    """Extract ``{phases, counters, gauges}`` from a metrics JSONL file.

    ``phases`` maps phase name to ``{"calls": int, "total_s": float}``.
    """
    events = read_events(path)
    snapshot: Optional[dict] = None
    for event in reversed(events):
        if event.get("kind") == "snapshot":
            snapshot = event.get("metrics", {})
            break
    if snapshot is not None:
        return summarize_snapshot(snapshot)
    # Fallback: aggregate raw phase events (no final snapshot was written).
    phases: Dict[str, dict] = {}
    for event in events:
        if event.get("kind") != "phase":
            continue
        stat = phases.setdefault(event["name"], {"calls": 0, "total_s": 0.0})
        stat["calls"] += 1
        stat["total_s"] += float(event.get("elapsed_s", 0.0))
    return {"phases": phases, "counters": {}, "gauges": {}}


def budget_by_phase(counters: Dict[str, float]) -> Dict[str, float]:
    """Per-phase budget units from ``budget.<phase>`` counters."""
    return {
        name[len(BUDGET_PREFIX):]: value
        for name, value in counters.items()
        if name.startswith(BUDGET_PREFIX)
    }


def _parent(name: str, names: set) -> Optional[str]:
    """The longest dotted prefix of ``name`` that is itself a row, if any."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in names:
            return prefix
    return None


def _phase_rows(summary: dict) -> List[List[object]]:
    """One row per phase; ``a.b`` nests inside ``a`` when ``a`` is a row.

    ``time %`` is a share of the summed *top-level* phase time, so nested
    phases are not counted twice and the top-level rows sum to 100%.
    ``self s`` (rows with nested children only) is the phase's total
    minus its direct children's totals.
    """
    phases = summary["phases"]
    budgets = budget_by_phase(summary["counters"])
    known = set(phases) | set(budgets)
    names = sorted(known)

    def total(name: str) -> float:
        return phases.get(name, {}).get("total_s", 0.0)

    child_time: Dict[str, float] = {}
    top_time = 0.0
    for name in names:
        parent = _parent(name, known)
        if parent is None:
            top_time += total(name)
        else:
            child_time[parent] = child_time.get(parent, 0.0) + total(name)
    top_time = top_time or 1.0

    rows: List[List[object]] = []
    for name in names:
        stat = phases.get(name, {"calls": 0, "total_s": 0.0})
        calls = stat["calls"]
        total_s = stat["total_s"]
        mean_ms = (total_s / calls * 1000.0) if calls else 0.0
        self_s = (f"{total_s - child_time[name]:.4f}"
                  if name in child_time else "")
        rows.append([
            name,
            calls,
            f"{total_s:.4f}",
            self_s,
            f"{mean_ms:.3f}",
            f"{100.0 * total_s / top_time:.1f}%",
            f"{budgets.get(name, 0.0):.1f}",
        ])
    return rows


def render_report(summary: dict) -> str:
    """The plain-text per-phase time/call/budget report."""
    rows = _phase_rows(summary)
    lines = []
    if rows:
        lines.append(format_table(
            ["phase", "calls", "total s", "self s", "mean ms", "time %",
             "budget"],
            rows,
        ))
    else:
        lines.append("no phase records in this event log")

    gauges = summary["gauges"]
    spent = gauges.get("budget.spent")
    total = gauges.get("budget.total")
    if spent is not None:
        attributed = sum(budget_by_phase(summary["counters"]).values())
        # Offline cross-training episodes spend separate training budgets
        # but land in the same budget.* counters; split them back out.
        pretrain = gauges.get("budget.pretrain", 0.0)
        budget_line = f"budget: {spent:.1f} spent"
        if total is not None:
            budget_line += f" of {total:.1f}"
        budget_line += f" ({attributed - pretrain:.1f} attributed to phases"
        if pretrain:
            budget_line += f", +{pretrain:.1f} offline pretraining"
        budget_line += ")"
        lines.append("")
        lines.append(budget_line)

    interesting: List[Tuple[str, float]] = sorted(
        (name, value) for name, value in summary["counters"].items()
        if not name.startswith(BUDGET_PREFIX)
    )
    if interesting:
        lines.append("")
        lines.append(format_table(
            ["counter", "value"],
            [[name, f"{value:g}"] for name, value in interesting],
        ))
    return "\n".join(lines)


__all__ = [
    "BUDGET_PREFIX",
    "budget_by_phase",
    "load_summary",
    "render_report",
    "summarize_snapshot",
]
