"""Output checking: every run of every pass against an oracle.

A run's fingerprint is a sha256 over every ``SimulationResult`` scalar,
every ``StatRegistry`` counter and the latency histograms; a report's
is a sha256 of its rendered bytes.  The expected fingerprints come from
a reference pass:

* campaigns replay each run through the frozen
  :mod:`repro.core.refcheck` engine (``run_reference``), and render the
  campaign from those results;
* lifecycle studies, which refcheck does not model, replay on the
  scalar engine (``batch=False``) with the same invariants armed.

Goldens for the recorded seeds live in ``goldens.json``
(``python3 perfbench/run.py --record-goldens SEED...`` rewrites them).  Any
other seed is checked live: the reference pass runs before measuring,
outside the timed region, and its fingerprints are cached under
``.perfbench/oracle/`` keyed by a digest of the program's sources, so a
changed program never reuses a stale reference.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, List, NamedTuple

from repro.core.perfmodel import estimate
from repro.core.refcheck import run_reference
from repro.experiments.runner import BenchmarkRun
from repro.workloads.suite import get_profile

from .hooks import Patcher, RunLog
from .workloads import WORKLOADS, CampaignWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
CACHE_DIR = os.path.join(ROOT, ".perfbench", "oracle")

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(result) -> str:
    """sha256 over a run's scalars, counters and histograms."""
    histograms = result.histograms or {}
    return _sha(json.dumps({
        "scalars": {name: getattr(result, name) for name in RESULT_FIELDS},
        "stats": result.stats.as_nested_dict(),
        "histograms": {name: histograms[name].as_dict()
                       for name in sorted(histograms)},
    }, sort_keys=True))


def outputs(log: RunLog, reports: Dict[str, str]) -> Dict[str, dict]:
    """The fingerprints of one pass, in the golden file's shape."""
    return {"runs": {r.run_id: fingerprint(r.result) for r in log.records},
            "reports": {label: _sha(text)
                        for label, text in sorted(reports.items())}}


class Verdict(NamedTuple):
    attempted: int
    failed: int
    problems: List[str]


def judge(golden: Dict[str, dict], log: RunLog, reports: Dict[str, str],
          reclaiming=()) -> Verdict:
    """Count the pass's runs and the ones that do not match ``golden``.

    A run fails if it is missing (it raised), its fingerprint differs,
    or it is labelled as reclaiming and left host memory allocated.  A
    report whose bytes differ fails every run of the pass.
    """
    seen = outputs(log, reports)
    problems = [f"raised {error}" for error in log.errors]
    mem_final = {r.run_id: r.mem_final for r in log.records
                 if r.label in reclaiming}
    run_ids = sorted(set(golden["runs"]) | set(seen["runs"]))
    bad = set()
    for run_id in run_ids:
        if seen["runs"].get(run_id) is None:
            problems.append(f"run {run_id}: missing")
        elif seen["runs"][run_id] != golden["runs"].get(run_id):
            problems.append(f"run {run_id}: output differs from oracle")
        elif mem_final.get(run_id, 0) != 0:
            problems.append(f"run {run_id}: {mem_final[run_id]} bytes "
                            "left allocated after final teardown")
        else:
            continue
        bad.add(run_id)
    for label in sorted(set(golden["reports"]) | set(seen["reports"])):
        if seen["reports"].get(label) != golden["reports"].get(label):
            problems.append(f"report {label}: bytes differ from oracle")
            bad.update(run_ids)
    return Verdict(len(run_ids), len(bad), problems)


def _reference_simulate(log: RunLog):
    """A ``simulate_run`` stand-in replaying on the frozen engine."""
    def simulate_run(benchmark, scheme, params, fault=None, obs=None,
                     workload=None):
        result = run_reference(benchmark, scheme, params)
        log.add(log.next_id(scheme), result)
        anchor = get_profile(benchmark).anchor(virtualized=params.virtualized)
        return BenchmarkRun(benchmark=benchmark, scheme=scheme, result=result,
                            performance=estimate(anchor, result.l2_tlb_misses,
                                                 result.penalty_cycles))
    return simulate_run


def reference(spec, seed: int) -> Dict[str, dict]:
    """Run the reference pass for ``spec`` at ``seed``; its fingerprints."""
    params = spec.params(seed)
    log = RunLog(params)
    patcher = Patcher()
    try:
        if isinstance(spec, CampaignWorkload):
            patcher.wrap("repro.experiments.runner:simulate_run",
                         lambda _original: _reference_simulate(log))
        else:
            params = replace(params, batch=False)
        log.install(patcher)
        reports = spec.run_pass(params, log)
    finally:
        patcher.restore()
    golden = outputs(log, reports)
    verdict = judge(golden, log, reports, spec.reclaiming)
    if verdict.failed or not log.records:
        raise RuntimeError("reference pass is not clean: "
                           + "; ".join(verdict.problems))
    return golden


def _source_digest(spec) -> str:
    """Digest of the workload, the program and the pass/oracle code."""
    paths = [os.path.join(HERE, name)
             for name in ("hooks.py", "oracle.py", "workloads.py")]
    for folder, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(folder, name) for name in sorted(files)
                     if name.endswith(".py"))
    digest = hashlib.sha256(repr(spec).encode())
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _load_goldens() -> Dict[str, dict]:
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as handle:
        return json.load(handle)


def golden_for(name: str, spec, seed: int) -> Dict[str, dict]:
    """Recorded golden, else cached live reference, else compute it."""
    recorded = _load_goldens().get(name, {}).get(str(seed))
    if recorded is not None:
        return recorded
    path = os.path.join(CACHE_DIR,
                        f"{name}-{seed}-{_source_digest(spec)}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    golden = reference(spec, seed)
    os.makedirs(CACHE_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as handle:
        json.dump(golden, handle)
    os.replace(path + ".tmp", path)
    return golden


def record(seeds) -> None:
    """Recompute the goldens of every workload for ``seeds``."""
    goldens = _load_goldens()
    for name, spec in WORKLOADS.items():
        for seed in seeds:
            goldens.setdefault(name, {})[str(seed)] = reference(spec, seed)
            print(f"recorded {name} seed {seed}", flush=True)
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")

