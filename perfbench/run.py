"""POM-TLB reproduction benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload campaign-miss --seed 7 \\
        --seconds 25 --trace 0

Runs whole passes of the workload (see ``perfbench/workloads.py``) until
``--seconds`` have elapsed, checks every run of every pass against the
oracle (``perfbench/oracle.py``) and prints, as its last stdout line,

    {"correct": ..., "attempted": runs, "failed": runs_failed,
     "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics (medians over passes) with
only stage-boundary timestamps installed.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split of the
traced ones (``perfbench/spans.py``); the spans of the last traced pass
are written to ``.perfbench/spans/``.  Metric names, units and the
end-to-end metric each layer metric should move are in
``perfbench/metrics.py``.

Garbage is collected between passes and never inside one; peak RSS is
reset before each pass, so ``peak_rss_mb`` is per pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_DIR = os.path.join(ROOT, ".perfbench", "spans")
#: how far the layer self times may sum away from the traced pass wall
SELF_TIME_TOLERANCE_S = 1e-3


class PassResult(NamedTuple):
    wall_s: float
    setup_s: float
    refs_per_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: List[str]
    #: per-layer metrics and self-time sum gap (traced passes only)
    layers: Optional[Dict[str, float]]
    gap_s: float


def _reset_peak_rss() -> None:
    """Restart the kernel's RSS high-water mark (Linux); else no-op."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            found = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        if found:
            return int(found.group(1)) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(spec, params, golden, traced: bool):
    """One pass of ``spec``; returns ``(PassResult, recorder or None)``."""
    from perfbench import oracle
    from perfbench.hooks import Patcher, RunLog
    from perfbench.spans import SpanRecorder, layer_metrics, self_time_gap

    log = RunLog(params)
    recorder = SpanRecorder(log) if traced else None
    patcher = Patcher()
    gc.collect()
    _reset_peak_rss()
    try:
        if recorder is not None:
            recorder.install(patcher)
        log.install(patcher)
        gc.disable()
        start = perf_counter()
        if recorder is not None:
            reports = recorder.root(spec.run_pass, params, log)
        else:
            reports = spec.run_pass(params, log)
        wall = perf_counter() - start
    finally:
        gc.enable()
        patcher.restore()
    peak = _peak_rss_mb()
    first = log.first_run_at if log.first_run_at is not None else start + wall
    verdict = oracle.judge(golden, log, reports, spec.reclaiming)
    layers, gap = None, 0.0
    if recorder is not None:
        layers = layer_metrics(recorder, log)
        gap = self_time_gap(recorder, wall)
    return PassResult(
        wall_s=wall, setup_s=first - start,
        refs_per_s=log.refs / log.replay_s if log.replay_s else 0.0,
        peak_rss_mb=peak, attempted=verdict.attempted,
        failed=verdict.failed, problems=verdict.problems,
        layers=layers, gap_s=gap), recorder


def measure(name: str, spec, seed: int, seconds: float, trace: bool,
            golden) -> dict:
    """Passes until ``seconds`` elapse; the result-line document."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    params = spec.params(seed)
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    recorder = None
    deadline = perf_counter() + seconds
    while True:
        want_trace = trace and len(traced) < len(plain)
        if want_trace:
            recorder = None  # keep one pass's spans in memory, not two
        result, pass_recorder = run_pass(spec, params, golden, want_trace)
        (traced if want_trace else plain).append(result)
        if pass_recorder is not None:
            recorder = pass_recorder
        if perf_counter() >= deadline and (traced or not trace):
            break
    passes = plain + traced
    for result in passes:
        print(f"pass{' (traced)' if result.layers else ''}: "
              f"wall {result.wall_s:.4f} s, setup {result.setup_s:.4f} s, "
              f"{result.refs_per_s:.1f} refs/s, "
              f"peak {result.peak_rss_mb:.1f} MB, "
              f"{result.failed}/{result.attempted} runs failed")
        for problem in result.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    gaps_ok = all(r.gap_s <= SELF_TIME_TOLERANCE_S for r in traced)
    if not gaps_ok:
        print("FAILED layer self times do not sum to the traced pass wall",
              file=sys.stderr)
    if trace:
        values = {metric: statistics.median(r.layers[metric] for r in traced)
                  for metric in (m.name for m in PER_LAYER)
                  if metric != "trace.overhead_pct"}
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain) - 1.0)
        units = {m.name: m.unit for m in PER_LAYER}
        stem = os.path.join(SPANS_DIR, f"{name}-seed{seed}")
        for path in recorder.dump(stem):
            print(f"spans: {os.path.relpath(path, ROOT)}")
    else:
        values = {
            "campaign_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(r.setup_s for r in plain),
            "refs_per_s": statistics.median(r.refs_per_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        }
        units = {m.name: m.unit for m in END_TO_END}
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"workload {name} seed {seed}: {len(plain)} passes"
          + (f" + {len(traced)} traced" if trace else ""))
    for metric in units:
        print(f"  {metric} = {values[metric]!r} {units[metric]}")
    print(f"  runs = {attempted}, runs_failed = {failed}")
    return {"correct": failed == 0 and gaps_ok,
            "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": values[metric],
                                 "unit": units[metric]}
                        for metric in units}}


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import oracle
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="POM-TLB reproduction benchmark (one workload, one seed)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", type=int, nargs="+",
                        metavar="SEED",
                        help="recompute perfbench/goldens.json for SEEDs "
                             "on every workload, then exit")
    args = parser.parse_args(argv)
    if args.record_goldens:
        oracle.record(args.record_goldens)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = WORKLOADS[args.workload]
    golden = oracle.golden_for(args.workload, spec, args.seed)
    document = measure(args.workload, spec, args.seed, args.seconds,
                       bool(args.trace), golden)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
