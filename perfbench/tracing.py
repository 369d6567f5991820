"""In-memory span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions and methods of the ``repro``
layers at runtime (it edits nothing under ``src/``), records one
:class:`Span` per call — name, start, end, parent span, run id — and
keeps every span in memory until the run ends.  :func:`layer_summary`
turns a run's spans into per-layer call counts, inclusive time and
*self* time: a span's duration minus the part of it covered by its
children, so a nested phase is never counted twice.

The untraced benchmark run never constructs a tracer, so it installs no
wrappers at all.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One traced call.  ``parent`` indexes the tracer's span list, -1 = none."""

    name: str
    start: float
    end: float
    parent: int
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A hook called after a traced call returns: (tracer, call args, result).
ResultHook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Records spans for wrapped calls; counts ride along, keyed by run id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self.run_id = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` (which must be the innermost open one)."""
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter of the current run id."""
        counts = self.counts.setdefault(self.run_id, {})
        counts[name] = counts.get(name, 0.0) + amount

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[ResultHook] = None) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str,
                     on_result: Optional[ResultHook] = None) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, on_result))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, on_result))
        else:
            wrapped = self.wrap(raw, name, on_result)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def patch_function(self, fn: Callable, name: str,
                       on_result: Optional[ResultHook] = None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it by name.

        ``from m import f`` copies the reference, so patching only the
        defining module would miss callers.
        """
        wrapped = self.wrap(fn, name, on_result)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(tracers: Sequence[Tracer], path: Path) -> None:
    """Write every tracer's spans as JSON lines (called once, at the end)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and overlapping children are
    merged before subtracting, so no interval is ever subtracted twice.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = covered_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        )
        out.append(span.duration - covered)
    return out


def layer_summary(spans: Sequence[Span], window: Tuple[float, float],
                  run_ids: Optional[set] = None) -> Tuple[dict, float]:
    """Per-name ``calls``/``s``/``self_s`` inside ``window``, plus the remainder.

    Only spans starting inside ``window`` (and, if given, carrying one of
    ``run_ids``) count.  ``s`` is inclusive time summed over the
    outermost span of each name, so recursion is not double counted;
    ``self_s`` sums self time.  The second value is the part of the
    window no top-level span covers: summed self time plus this
    remainder equals the window length.
    """
    start, end = window
    selected = [
        i for i, span in enumerate(spans)
        if start <= span.start < end
        and (run_ids is None or span.run_id in run_ids)
    ]
    chosen = set(selected)
    self_all = self_times(spans)
    summary: Dict[str, dict] = {}
    for i in selected:
        span = spans[i]
        row = summary.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_all[i]
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            row["s"] += span.duration
    top_level = [
        (spans[i].start, min(spans[i].end, end)) for i in selected
        if spans[i].parent < 0 or spans[i].parent not in chosen
    ]
    remainder = (end - start) - covered_length(top_level)
    return summary, remainder
