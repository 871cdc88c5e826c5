"""The benchmark's own tests, on workloads far smaller than the real ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import oracle, run  # noqa: E402
from perfbench.hooks import Patcher, RunLog  # noqa: E402
from perfbench.metrics import (BENCHMARK_JSON,  # noqa: E402
                               BENCHMARK_WORKLOADS, END_TO_END, PER_LAYER,
                               benchmark_json)
from perfbench.workloads import (WORKLOADS, CampaignWorkload,  # noqa: E402
                                 LifecycleWorkload)

TINY = {
    "campaign": CampaignWorkload(
        why="tiny", benchmarks=("gups",), num_cores=2, scale=0.05,
        refs_per_core=300),
    "lifecycle": LifecycleWorkload(
        why="tiny", churn_mix=("gups", "mcf"), generations=2,
        storm_benchmark="gups", storm_rate=20.0, num_cores=2, scale=0.02,
        refs_per_core=200),
}
SEED = 5


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny(request):
    spec = TINY[request.param]
    return spec, oracle.reference(spec, SEED)


@pytest.fixture(autouse=True)
def spans_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", str(tmp_path))


@pytest.mark.parametrize("trace", [False, True])
def test_short_pass_emits_every_named_metric(tiny, trace):
    spec, golden = tiny
    document = run.measure("tiny", spec, SEED, 0.0, trace, golden)
    expected = PER_LAYER if trace else END_TO_END
    assert sorted(document["metrics"]) == sorted(m.name for m in expected)
    for metric in expected:
        entry = document["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
    assert document["correct"] is True
    assert document["attempted"] >= len(golden["runs"])
    assert document["failed"] == 0
    if not trace:
        assert all(document["metrics"][m.name]["value"] > 0
                   for m in END_TO_END)
    assert json.loads(json.dumps(document)) == document


def test_tampered_run_golden_counts_one_failed_run(tiny):
    spec, golden = tiny
    run_id = sorted(golden["runs"])[0]
    tampered = {"runs": dict(golden["runs"], **{run_id: "0" * 64}),
                "reports": golden["reports"]}
    result, _recorder = run.run_pass(spec, spec.params(SEED), tampered,
                                     traced=False)
    assert result.attempted == len(golden["runs"])
    assert result.failed == 1
    assert any(run_id in problem for problem in result.problems)


def test_tampered_report_golden_fails_every_run(tiny):
    spec, golden = tiny
    label = sorted(golden["reports"])[0]
    tampered = {"runs": golden["runs"],
                "reports": dict(golden["reports"], **{label: "0" * 64})}
    result, _recorder = run.run_pass(spec, spec.params(SEED), tampered,
                                     traced=False)
    assert result.failed == result.attempted == len(golden["runs"])


def test_layer_self_times_sum_to_traced_pass_wall(tiny):
    spec, golden = tiny
    result, recorder = run.run_pass(spec, spec.params(SEED), golden,
                                    traced=True)
    assert result.failed == 0
    self_metrics = [m.name for m in PER_LAYER if m.unit == "s"
                    and m.name != "core.replay_s"]
    total = sum(result.layers[name] for name in self_metrics)
    assert total == pytest.approx(result.wall_s,
                                  abs=run.SELF_TIME_TOLERANCE_S)
    assert result.gap_s <= run.SELF_TIME_TOLERANCE_S
    assert result.layers["core.replay_s"] >= result.layers[
        "core.replay.self_s"] > 0
    spans = len(recorder.span_start)
    assert spans > 0 and len(recorder.span_run) == spans
    assert all(start <= end for start, end
               in zip(recorder.span_start, recorder.span_end))


def test_unreclaimed_memory_fails_the_run():
    spec = TINY["lifecycle"]
    golden = oracle.reference(spec, SEED)
    log = RunLog(spec.params(SEED))
    patcher = Patcher()
    log.install(patcher)
    try:
        reports = spec.run_pass(spec.params(SEED), log)
    finally:
        patcher.restore()
    assert oracle.judge(golden, log, reports, spec.reclaiming).failed == 0
    victim = next(i for i, r in enumerate(log.records) if r.label == "churn")
    log.records[victim] = log.records[victim]._replace(mem_final=4096)
    assert oracle.judge(golden, log, reports, spec.reclaiming).failed == 1


def test_benchmark_json_matches_metric_table():
    with open(BENCHMARK_JSON) as handle:
        document = json.load(handle)
    assert document == benchmark_json({name: WORKLOADS[name].why
                                       for name in BENCHMARK_WORKLOADS})
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit)
               for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == next(
        m.bound for m in END_TO_END if m.name == "setup_s")
    assert all(len(spec.why) <= 200 and "\n" not in spec.why
               for spec in WORKLOADS.values())
    assert all(m.moves in {e.name for e in END_TO_END} for m in PER_LAYER)
    assert all(m.on in set(BENCHMARK_WORKLOADS) | {"all"} for m in PER_LAYER)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_missing_wrap_target_is_skipped_only_when_optional():
    patcher = Patcher()
    assert not patcher.wrap("repro.core.system:Machine.no_such_method",
                            lambda original: original, required=False)
    with pytest.raises(KeyError):
        patcher.wrap("repro.core.system:Machine.no_such_method",
                     lambda original: original)
    patcher.restore()
