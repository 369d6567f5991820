"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload s12cp-joint --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each of
the workload's first ``min_draws`` draws once traced and once untraced
(ignoring ``--seconds``) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its sample count and record the machine.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP thread pools before numpy is imported, and clear the
# program's own environment switches so only the generated inputs vary.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
for _var in ("REPRO_METRICS", "REPRO_CONTRACTS", "REPRO_CHAOS_SEED"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: How many of a run's first reps set up from cold, and how many fresh
#: interpreters time the imports; ``setup_s`` adds the two medians.
COLD_SETUPS = 3

#: End-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "answers_per_s": "1/s",
    "accuracy": "ratio",
    "f1": "ratio",
    "delivered_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics of the traced run: name -> unit, in report order."""
    from layers import RUN_SPANS, SETUP_SPANS

    units: Dict[str, str] = {}
    for span in RUN_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
        units[f"{span}.self_s"] = "s"
    for span in SETUP_SPANS:
        units[f"{span}.s"] = "s"
    units.update({
        "inference.joint.em_sweeps": "count",
        "inference.joint.converged_frac": "ratio",
        "crowd.answers": "count",
        "crowd.retries": "count",
        "crowd.gave_up": "count",
        "crowd.useful_frac": "ratio",
        "harness.checkpoint.bytes": "bytes",
        "obs.events.bytes": "bytes",
        "serve.virtual_makespan_s": "s",
        "serve.lease_wait_virtual_s": "s",
        "serve.peak_active": "count",
        "analysis.files": "count",
        "trace.run_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def import_seconds(modules) -> float:
    """Median CPU time of a fresh interpreter importing ``modules``.

    An import happens once per process, so timing it in the run's own
    process gives one sample; fresh interpreters give several.
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            + "; ".join(f"import {m}" for m in ("workloads", *modules)))

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    times = []
    for _ in range(COLD_SETUPS):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(children_cpu() - start)
    return statistics.median(times)


def draw_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th draw, derived from the run's seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def environment() -> dict:
    """Machine and library versions recorded with every result."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


class Runner:
    """Runs reps of one workload and keeps what they measured."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0

    def rep(self, index: int, rep_id: str, tracer=None):
        """Rep on draw ``index``; returns its RepResult, or None if it raised.

        The first :data:`COLD_SETUPS` draws set up from cold; later ones
        may reuse what the program caches per process.
        """
        import layers
        from workloads import Marks

        self.attempted += 1
        gc.collect()
        marks = Marks(tracer=tracer, rep_id=rep_id, cold=index < COLD_SETUPS)
        workdir = WORK / f"{self.workload.name}-{os.getpid()}-{rep_id}"
        if tracer is not None:
            layers.install(tracer)
        try:
            result = self.workload.rep(draw_seed(self.seed, index), marks,
                                       workdir)
        except Exception:  # a crashing rep is a failed operation, not a crash
            self.failed += 1
            self.failures.append(f"rep {rep_id} raised:\n{traceback.format_exc()}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        if result.errors:
            self.failed += 1
            self.failures += [f"rep {rep_id}: {e}" for e in result.errors]
        return result

    def check_repeats(self, by_draw: Dict[int, list]) -> None:
        """Every rep of the same draw must reproduce its deterministic outputs."""
        for draw, results in sorted(by_draw.items()):
            first = results[0].fingerprint
            for result in results[1:]:
                if result.fingerprint != first:
                    self.failed += 1
                    self.failures.append(
                        f"draw {draw} did not repeat: {first} vs "
                        f"{result.fingerprint}")


def end_to_end(runner: Runner, seconds: float, import_s: float, monitor=None):
    """New draws until the time is up (at least ``min_draws`` of them).

    Each draw runs ``repeats`` times in a row; its outputs must repeat
    exactly.  Times are reported in reference seconds: each rep's host
    CPU times scaled by the host's speed during that rep, as ``monitor``
    measured it on a spare CPU (see ``calibrate.py``; without a monitor,
    host CPU seconds).  A draw's times are the minimum over its repeats,
    sample by sample.  ``run_s`` and ``answers_per_s`` are medians over
    draws; the decide percentiles pool every draw's samples.  Quality
    metrics average over exactly the first ``min_draws`` draws, so they
    do not depend on how many draws fit in the time.  Returns the
    metrics, their sample counts, and the timing metrics again in host
    CPU seconds (printed for reference, not gated).
    """
    workload = runner.workload
    start = time.perf_counter()
    draws: List[list] = []
    while True:
        draw_start = time.perf_counter()
        index = len(draws)
        draws.append([runner.rep(index, f"d{index}r{r}")
                      for r in range(workload.repeats)])
        now = time.perf_counter()
        if (len(draws) >= workload.min_draws
                and now - start + (now - draw_start) > seconds):
            break
    if monitor is not None:
        monitor.stop()
    if any(r is None for reps in draws for r in reps):
        return None, {}, {}
    runner.check_repeats(dict(enumerate(draws)))
    for index, reps in enumerate(draws):
        if len({len(r.decide_s) for r in reps}) != 1:
            runner.failed += 1
            runner.failures.append(f"draw {index}: repeats took different "
                                   f"numbers of decisions")
            return None, {}, {}
    if not any(r.decide_s for reps in draws for r in reps):
        runner.failed += 1
        runner.failures.append("no decide samples were recorded")
        return None, {}, {}

    def factor(rep) -> float:
        if monitor is None:
            return 1.0
        return monitor.factor(rep.setup_window[0], rep.run_window[1])

    host = timings(draws, import_s, lambda rep: 1.0)
    metrics = timings(draws, import_s * (monitor.run_factor() if monitor
                                         else 1.0), factor)
    quality = [reps[0] for reps in draws[:workload.min_draws]]
    metrics.update({
        "accuracy": statistics.fmean(r.accuracy for r in quality),
        "f1": statistics.fmean(r.f1 for r in quality),
        "delivered_frac": sum(r.answers for r in quality)
        / sum(r.requested for r in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    n_decide = sum(len(reps[0].decide_s) for reps in draws)
    samples = {
        "setup_s": min(COLD_SETUPS, len(draws) * workload.repeats),
        "run_s": len(draws), "decide_ms_p50": n_decide,
        "decide_ms_p90": n_decide, "answers_per_s": len(draws),
        "accuracy": len(quality), "f1": len(quality),
        "delivered_frac": len(quality), "peak_rss_mb": 1,
    }
    return metrics, samples, host


def timings(draws: List[list], import_s: float, factor) -> dict:
    """The timing metrics, each rep's host times scaled by ``factor(rep)``."""
    import numpy as np

    reps = [rep for draw in draws for rep in draw]
    cold = [factor(rep) * rep.setup_s for rep in reps[:COLD_SETUPS]]
    run_s, rates, decide = [], [], []
    for draw in draws:
        fastest = min(factor(rep) * rep.run_s for rep in draw)
        run_s.append(fastest)
        rates.append(draw[0].answers / fastest)
        decide += np.min([factor(rep) * np.asarray(rep.decide_s)
                          for rep in draw], axis=0).tolist()
    decide_ms = np.asarray(decide) * 1e3
    return {
        "setup_s": import_s + statistics.median(cold),
        "run_s": statistics.median(run_s),
        "decide_ms_p50": float(np.percentile(decide_ms, 50)),
        "decide_ms_p90": float(np.percentile(decide_ms, 90)),
        "answers_per_s": statistics.median(rates),
    }


def per_layer(runner: Runner, spans_path: Path):
    """The first ``min_draws`` draws, each once traced and once untraced.

    Per-layer metrics are per-draw means over the traced reps.
    """
    from layers import RUN_SPANS, SETUP_SPANS
    from tracing import Tracer, layer_summary, write_spans

    n_draws = runner.workload.min_draws
    sums: Dict[str, float] = defaultdict(float)
    peak_active = 0.0
    tracers = []
    by_draw: Dict[int, list] = {d: [] for d in range(n_draws)}
    for draw in range(n_draws):
        # Alternate which side goes first, so drift does not bias the overhead.
        for traced in ((False, True) if draw % 2 == 0 else (True, False)):
            tracer = Tracer() if traced else None
            rep_id = f"{'t' if traced else 'u'}d{draw}"
            result = runner.rep(draw, rep_id, tracer)
            if result is None:
                continue
            by_draw[draw].append(result)
            # Spans are wall-clock, so the traced figures use the run's
            # wall-clock window rather than its CPU time.
            wall_s = result.run_window[1] - result.run_window[0]
            if not traced:
                sums["untraced.run_s"] += wall_s
                continue
            tracers.append(tracer)
            run, remainder = layer_summary(tracer.spans, result.run_window,
                                           {f"{rep_id}:run"})
            setup, _ = layer_summary(tracer.spans, result.setup_window,
                                     {f"{rep_id}:setup"})
            attributed = sum(row["self_s"] for row in run.values())
            if abs(attributed + remainder - wall_s) > 1e-6 * wall_s:
                runner.failed += 1
                runner.failures.append(
                    f"rep {rep_id}: self times {attributed} + remainder "
                    f"{remainder} != run_s {wall_s}")
            for span in RUN_SPANS:
                for key, value in run.get(span, {}).items():
                    sums[f"{span}.{key}"] += value
            for span in SETUP_SPANS:
                sums[f"{span}.s"] += setup.get(span, {}).get("s", 0.0)
            sums["trace.run_s"] += wall_s
            sums["trace.unattributed_s"] += remainder
            run_counts = tracer.counts.get(f"{rep_id}:run", {})
            for name, value in [*run_counts.items(), *result.counts.items()]:
                if name == "serve.peak_active":
                    peak_active = max(peak_active, value)
                else:
                    sums[name] += value
    runner.check_repeats({d: r for d, r in by_draw.items() if r})
    if any(len(results) < 2 for results in by_draw.values()):
        return None
    write_spans(tracers, spans_path)
    metrics = {name: sums[name] / n_draws for name in per_layer_units()}
    joint_calls = sums["inference.joint.calls"]
    metrics["inference.joint.converged_frac"] = (
        sums["inference.joint.converged"] / joint_calls if joint_calls else 0.0)
    metrics["crowd.useful_frac"] = (
        sums["crowd.answers"] / sums["crowd.attempts"]
        if sums["crowd.attempts"] else 0.0)
    metrics["serve.peak_active"] = peak_active
    metrics["trace.overhead_frac"] = (
        sums["trace.run_s"] / sums["untraced.run_s"] - 1.0)
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    from calibrate import Monitor

    monitor = Monitor(WORK / f"host-speed-{os.getpid()}.txt")
    if not args.trace:
        monitor.start()
    try:
        return measure(args, monitor)
    finally:
        monitor.stop()


def measure(args: argparse.Namespace, monitor) -> int:
    """Run the workload, print its metrics; the exit code."""
    sys.path.insert(0, str(SRC))
    from workloads import workloads

    table = workloads(SRC, smoke=args.smoke)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    import_s = 0.0 if args.trace else import_seconds(workload.imports)
    for module in workload.imports:
        importlib.import_module(module)
    runner = Runner(workload, args.seed)
    if args.trace:
        units = per_layer_units()
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = per_layer(runner, spans_path)
        samples = {name: runner.workload.min_draws for name in units}
        host = {}
    else:
        units = END_TO_END
        metrics, samples, host = end_to_end(runner, args.seconds, import_s,
                                            monitor)
    for failure in runner.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = metrics is not None and runner.failed == 0
    if metrics is None:
        metrics = {}
    for name, unit in units.items():
        if name in metrics:
            note = f"; host {host[name]:.6f}" if name in host else ""
            print(f"{name:32s} {metrics[name]:>14.6f} {unit:6s} "
                  f"(n={samples[name]}{note})")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(),
                      "reference_seconds": bool(monitor.times)}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if correct else max(runner.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
