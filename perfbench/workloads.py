"""The benchmark's workloads and the pass each one runs.

A pass is one full run of a workload through the program's public
experiment entry points — :func:`repro.experiments.campaign.run_all`
(serial, in-process, no sensitivity sweeps) or the
:mod:`repro.experiments.lifecycle` studies — from the start of workload
generation to the last rendered report.  The seed comes from the
command line; the program sees only the parameters built from it.
"""

from __future__ import annotations

import io
import sys
import traceback
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.campaign import run_all
from repro.experiments.lifecycle import churn_study, shootdown_sweep
from repro.experiments.runner import ExperimentParams

from .hooks import RunLog


@dataclass(frozen=True)
class CampaignWorkload:
    """The 6-runs-per-benchmark campaign (Figs 2, 3, 8-12)."""

    why: str
    benchmarks: Tuple[str, ...]
    num_cores: int
    scale: float
    refs_per_core: int
    #: run labels whose runs must end with every host frame reclaimed
    reclaiming: Tuple[str, ...] = ()

    def params(self, seed: int) -> ExperimentParams:
        return ExperimentParams(num_cores=self.num_cores,
                                refs_per_core=self.refs_per_core,
                                scale=self.scale, seed=seed, workers=0)

    def run_pass(self, params: ExperimentParams,
                 log: RunLog) -> Dict[str, str]:
        """One campaign; returns ``{report label: rendered text}``."""
        out = io.StringIO()
        result = run_all(params, self.benchmarks, out=out,
                         include_sensitivity=False, progress=io.StringIO())
        log.errors.extend(failure.error.type for failure in result.failures)
        return {"campaign": out.getvalue()}


@dataclass(frozen=True)
class LifecycleWorkload:
    """Consolidation churn plus a shootdown storm beside its control."""

    why: str
    churn_mix: Tuple[str, ...]
    generations: int
    storm_benchmark: str
    #: shootdowns per 1000 measured refs, run beside the rate-0 control
    storm_rate: float
    num_cores: int
    scale: float
    refs_per_core: int
    reclaiming: Tuple[str, ...] = ("churn",)

    def params(self, seed: int) -> ExperimentParams:
        return ExperimentParams(num_cores=self.num_cores,
                                refs_per_core=self.refs_per_core,
                                scale=self.scale, seed=seed, workers=0,
                                verify=True)

    def run_pass(self, params: ExperimentParams,
                 log: RunLog) -> Dict[str, str]:
        """Both studies, every scheme; a study that raises is recorded."""
        studies = (
            ("churn", lambda: churn_study(params, self.churn_mix,
                                          self.generations)),
            ("shootdown", lambda: shootdown_sweep(
                params, self.storm_benchmark, (0.0, self.storm_rate))),
        )
        reports = {}
        for label, study in studies:
            log.label = label
            try:
                reports[label] = study().render()
            except Exception as exc:  # counted as failed runs, pass goes on
                traceback.print_exc(file=sys.stderr)
                log.errors.append(type(exc).__name__)
        log.label = ""
        return reports


WORKLOADS = {
    "campaign-miss": CampaignWorkload(
        why="mcf and gups: 20-180 L2-TLB misses per kref and a warm-up "
            "that demand-pages and nested-walks every page, so the "
            "translation miss path does most of the work",
        benchmarks=("mcf", "gups"), num_cores=2, scale=0.3,
        refs_per_core=1500),
    # Runnable by hand, not in BENCHMARK.json: metrics.BENCHMARK_WORKLOADS.
    "campaign-hit": CampaignWorkload(
        why="streamcluster and libquantum at a footprint inside the L2 "
            "TLB with a long measured phase, so the replay loop, data "
            "caches and main DRAM do the work and walks are rare",
        benchmarks=("streamcluster", "libquantum"), num_cores=2,
        scale=0.05, refs_per_core=20000),
    # The churn mix leaves out the churn_study default's mcf: its 60.7%
    # large-page share falls on only 2-3 huge-page regions at this
    # footprint, so the per-seed THP draw swung a pass's work by ~25%.
    "lifecycle-churn": LifecycleWorkload(
        why="VM teardown, shootdowns, invalidation, frame reuse and the "
            "armed invariant checkers run beside translation, on the "
            "scalar engine, under all 5 schemes",
        churn_mix=("gcc", "canneal", "gups", "graph500"), generations=2,
        storm_benchmark="gups", storm_rate=20.0, num_cores=2, scale=0.05,
        refs_per_core=1000),
}
