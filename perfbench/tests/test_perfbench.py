"""Tests of the benchmark itself: names, self-time arithmetic, determinism.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from calibrate import REFERENCE_S, Monitor
from tracing import Span, Tracer, covered_length, layer_summary, self_times
from workloads import RepResult, Workload, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("s12cp-joint", "fashion-pm-journal", "serve-tenants", "analyze-src")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int, cwd: Path = ROOT,
           script: Path = ROOT / "perfbench" / "run.py"):
    """Run the benchmark command at smoke size; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


# ----------------------------------------------------------------------
# BENCHMARK.json and metric names
# ----------------------------------------------------------------------
class TestNames:
    def test_end_to_end_names_and_units_match(self):
        spec = benchmark_json()
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert declared == run.END_TO_END

    def test_per_layer_names_and_units_match(self):
        spec = benchmark_json()
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared == run.per_layer_units()

    def test_workloads_match(self):
        spec = benchmark_json()
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert list(workloads(ROOT / "src", smoke=True)) == list(WORKLOADS)

    def test_grammar_and_bounds(self):
        spec = benchmark_json()
        names = [w["name"] for w in spec["workloads"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
        for metric in spec["end_to_end"]:
            assert 0 < metric["bound"] <= 0.25, metric
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def nested_spans():
    """root[0,10] > (a[1,4] > g[2,3]), b[5,9]; then a second root[11,12]."""
    return [
        Span("root", 0.0, 10.0, -1, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("g", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("root", 11.0, 12.0, -1, "r"),
    ]


class TestSelfTime:
    def test_children_subtracted_once(self):
        assert self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0, 1.0]

    def test_grandchild_is_not_subtracted_from_the_root(self):
        # The report bug this guards against: summing every nested row
        # counts g inside a and again inside root.
        spans = nested_spans()
        total = sum(self_times(spans)[:4])
        assert total == pytest.approx(spans[0].duration)

    def test_overlapping_children_are_merged(self):
        spans = [
            Span("p", 0.0, 10.0, -1, "r"),
            Span("c", 1.0, 6.0, 0, "r"),
            Span("c", 4.0, 8.0, 0, "r"),
            Span("c", 9.0, 12.0, 0, "r"),  # runs past its parent: clipped
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)

    def test_covered_length(self):
        assert covered_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4

    def test_summary_self_plus_remainder_equals_window(self):
        summary, remainder = layer_summary(nested_spans(), (0.0, 14.0))
        assert remainder == pytest.approx(14.0 - 10.0 - 1.0)
        attributed = sum(row["self_s"] for row in summary.values())
        assert attributed + remainder == pytest.approx(14.0)
        assert summary["root"] == {"calls": 2, "s": 11.0, "self_s": 4.0}

    def test_recursion_counts_outermost_inclusive_time(self):
        spans = [
            Span("f", 0.0, 4.0, -1, "r"),
            Span("f", 1.0, 3.0, 0, "r"),
        ]
        summary, _ = layer_summary(spans, (0.0, 4.0))
        assert summary["f"] == {"calls": 2, "s": 4.0, "self_s": 4.0}

    def test_summary_filters_by_run_id(self):
        spans = nested_spans()
        spans[4].run_id = "other"
        summary, _ = layer_summary(spans, (0.0, 14.0), {"r"})
        assert summary["root"]["calls"] == 1


class _Target:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n


class TestTracer:
    def test_wraps_records_parents_and_uninstalls(self):
        original = _Target.__dict__["work"]
        tracer = Tracer()
        tracer.patch_method(_Target, "work", "outer")
        tracer.patch_method(_Target, "inner", "inner",
                            lambda t, args, result: t.count("seen", result))
        tracer.run_id = "x"
        assert _Target().work(2) == 3
        tracer.uninstall()
        assert _Target.__dict__["work"] is original
        names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
        assert names == [("outer", -1, "x"), ("inner", 0, "x")]
        assert tracer.counts == {"x": {"seen": 2.0}}


# ----------------------------------------------------------------------
# Failed checks count as failed operations
# ----------------------------------------------------------------------
def _fake_rep(errors):
    def rep(seed, marks, workdir):
        return RepResult(setup_s=0.1, run_s=0.2, decide_s=[0.001], answers=1,
                         requested=1, accuracy=0.5, f1=0.5,
                         fingerprint=(seed,), counts={}, errors=list(errors))
    return rep


def test_only_traced_reps_install_wrappers():
    from repro.core.agent import Agent

    original = Agent.__dict__["act"]
    seen = []

    def rep(seed, marks, workdir):
        seen.append(Agent.__dict__["act"] is original)
        return _fake_rep([])(seed, marks, workdir)

    runner = run.Runner(Workload("fake", 1, 1, rep), 0)
    runner.rep(0, "u")
    runner.rep(0, "t", Tracer())
    assert seen == [True, False]
    assert Agent.__dict__["act"] is original


def test_a_failed_check_fails_the_rep():
    runner = run.Runner(Workload("fake", 2, 1, _fake_rep(["broken"])), 0)
    metrics, _, _ = run.end_to_end(runner, 0.0, 0.0)
    assert metrics is not None
    assert runner.attempted == 2 and runner.failed == 2


def test_a_draw_that_does_not_repeat_fails():
    outputs = iter([1, 2])
    runner = run.Runner(Workload("fake", 1, 1, _fake_rep([])), 0)
    results = [
        RepResult(0.1, 0.2, [0.001], 1, 1, 0.5, 0.5, (next(outputs),), {}, [])
        for _ in range(2)
    ]
    runner.check_repeats({0: results})
    assert runner.failed == 1


def _timed_rep(times):
    """A rep whose run and decide times come from ``times``, one per call."""
    calls = iter(times)

    def rep(seed, marks, workdir):
        run_s, decide = next(calls)
        return RepResult(setup_s=0.1, run_s=run_s, decide_s=decide, answers=10,
                         requested=10, accuracy=0.5, f1=0.5,
                         fingerprint=(seed,), counts={}, errors=[])
    return rep


def test_repeats_keep_the_fastest_time_per_sample():
    rep = _timed_rep([(2.0, [0.003, 0.001]), (1.0, [0.002, 0.004])])
    runner = run.Runner(Workload("fake", 1, 2, rep), 0)
    metrics, samples, _ = run.end_to_end(runner, 0.0, 0.0)
    assert runner.failed == 0
    assert metrics["run_s"] == 1.0 and metrics["answers_per_s"] == 10.0
    assert metrics["decide_ms_p50"] == pytest.approx(1.5)
    assert samples["run_s"] == 1 and samples["decide_ms_p50"] == 2


def test_repeats_that_decide_differently_fail():
    rep = _timed_rep([(1.0, [0.001]), (1.0, [0.001, 0.002])])
    runner = run.Runner(Workload("fake", 1, 2, rep), 0)
    metrics, _, _ = run.end_to_end(runner, 0.0, 0.0)
    assert metrics is None and runner.failed == 1


# ----------------------------------------------------------------------
# Host speed from the monitor on a spare CPU
# ----------------------------------------------------------------------
def test_monitor_factor_uses_the_samples_inside_the_window():
    monitor = Monitor(Path("unused"))
    monitor.ends = [float(i) for i in range(100)]
    monitor.times = [REFERENCE_S] * 50 + [2 * REFERENCE_S] * 50
    assert monitor.factor(0.0, 49.0) == 1.0
    assert monitor.factor(50.0, 99.0) == 0.5
    # Too few samples inside: the whole run's factor.
    assert monitor.factor(10.0, 12.0) == monitor.run_factor()


def test_without_samples_times_stay_host_seconds():
    monitor = Monitor(Path("unused"))
    assert monitor.run_factor() == 1.0 and monitor.factor(0.0, 1.0) == 1.0


def test_monitor_stops_and_leaves_nothing_behind(tmp_path):
    monitor = Monitor(tmp_path / "speed.txt")
    if not monitor.available:
        pytest.skip("the monitor needs a second CPU")
    affinity = os.sched_getaffinity(0)
    try:
        monitor.start()
        proc = monitor.proc
        time.sleep(0.5)
        monitor.stop()
    finally:
        os.sched_setaffinity(0, affinity)
    assert proc.poll() is not None and monitor.proc is None
    assert monitor.times and monitor.ends == sorted(monitor.ends)
    assert list(tmp_path.iterdir()) == []


def test_seeds_change_the_draw():
    draws = [run.draw_seed(0, i) for i in range(3)]
    assert draws == [run.draw_seed(0, i) for i in range(3)]
    assert draws != [run.draw_seed(1, i) for i in range(3)]
    assert len(set(draws)) == 3


# ----------------------------------------------------------------------
# Every workload at smoke size, through the command itself
# ----------------------------------------------------------------------
DETERMINISTIC = ("accuracy", "f1", "delivered_frac")
#: Host-time metrics (and the event log, whose records carry timings).
TIMES = re.compile(r"(\.s|\.self_s)$|^trace\.|^obs\.events\.bytes$")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    code, lines = invoke(workload, 3, 0)
    assert code == 0, lines
    first = json.loads(lines[-1])
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["failed"] == 0
    assert first["attempted"] >= 1
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(name) and "(n=" in line for line in lines)
        assert first["metrics"][name]["value"] != 0, name

    again = json.loads(invoke(workload, 3, 0)[1][-1])
    other = json.loads(invoke(workload, 4, 0)[1][-1])
    for name in DETERMINISTIC:
        assert again["metrics"][name] == first["metrics"][name]
    if workload != "analyze-src":  # the analyzer labels every corpus right
        assert any(other["metrics"][n] != first["metrics"][n]
                   for n in DETERMINISTIC)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat(workload):
    code, lines = invoke(workload, 3, 1)
    assert code == 0, lines
    first = json.loads(lines[-1])
    assert first["correct"] is True
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        run.per_layer_units()
    again = json.loads(invoke(workload, 3, 1)[1][-1])
    for name, value in first["metrics"].items():
        if not TIMES.search(name):
            assert again["metrics"][name] == value, name
    assert first["metrics"]["trace.run_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = invoke("s12cp-joint", 0, 0, cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
