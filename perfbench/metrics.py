"""The benchmark's metric table: one place that names every metric.

``BENCHMARK.json`` at the repository root is derived from this table
(``python3 perfbench/metrics.py`` rewrites it; a test checks the two
agree).  The table also records what ``BENCHMARK.json`` has no field
for: which end-to-end metric each per-layer metric should move, and on
which workload.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40
#: Workloads the benchmark runs.  ``campaign-hit`` stays runnable by hand
#: as the walk-free contrast of the traced layer split, but is left out:
#: on a 2-CPU host whose speed drifts 1.5-1.7x over tens of seconds its
#: short passes gave ten-seed spreads of 0.26-0.34, and three workloads
#: leave no time budget for runs long enough to average the drift out.
BENCHMARK_WORKLOADS = ("campaign-miss", "lifecycle-churn")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric this layer metric should move ...
    moves: str
    #: ... and the workload(s) on which it should move it
    on: str


END_TO_END = (
    EndToEnd("campaign_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("refs_per_s", "refs/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2),
)

_ALL = "all"
_MISS = "campaign-miss"
_CHURN = "lifecycle-churn"

PER_LAYER = (
    PerLayer("workloads.build_s", "s", "lower", "setup_s", _ALL),
    PerLayer("workloads.pack_s", "s", "lower", "setup_s", _ALL),
    PerLayer("workloads.refs", "count", "higher", "setup_s", _ALL),
    PerLayer("experiments.model_s", "s", "lower", "campaign_s", _ALL),
    PerLayer("experiments.render_s", "s", "lower", "campaign_s", _ALL),
    PerLayer("experiments.runs", "count", "higher", "campaign_s", _ALL),
    PerLayer("core.replay_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("core.replay.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("core.replay.batch_runs", "count", "higher", "refs_per_s", _MISS),
    PerLayer("core.replay.scalar_runs", "count", "lower", "refs_per_s", _MISS),
    PerLayer("core.mmu.translate.calls", "count", "lower", "refs_per_s",
             _MISS),
    PerLayer("core.mmu.translate.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("core.pom.probe.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("core.tsb.probe.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("core.l2_tlb_misses", "count", "lower", "refs_per_s", _MISS),
    PerLayer("core.page_walks", "count", "lower", "refs_per_s", _MISS),
    PerLayer("core.pom.hit_ratio", "ratio", "higher", "refs_per_s", _MISS),
    PerLayer("tlb.l1.hit_ratio", "ratio", "higher", "refs_per_s", _ALL),
    PerLayer("tlb.l2.hit_ratio", "ratio", "higher", "refs_per_s", _ALL),
    PerLayer("paging.walk.calls", "count", "lower", "refs_per_s", _MISS),
    PerLayer("paging.walk.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("paging.host_translate.self_s", "s", "lower", "refs_per_s",
             _MISS),
    PerLayer("paging.psc.hit_ratio", "ratio", "higher", "refs_per_s", _MISS),
    PerLayer("vmm.touch.calls", "count", "lower", "refs_per_s", _MISS),
    PerLayer("vmm.touch.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("vmm.destroy_vm.calls", "count", "higher", "campaign_s", _CHURN),
    PerLayer("vmm.destroy_vm.self_s", "s", "lower", "campaign_s", _CHURN),
    PerLayer("vmm.shootdown.calls", "count", "higher", "campaign_s", _CHURN),
    PerLayer("vmm.shootdown.self_s", "s", "lower", "campaign_s", _CHURN),
    PerLayer("vmm.frames_freed", "count", "higher", "campaign_s", _CHURN),
    PerLayer("vmm.peak_bytes", "bytes", "lower", "peak_rss_mb", _CHURN),
    PerLayer("cache.data_access.calls", "count", "lower", "refs_per_s", _MISS),
    PerLayer("cache.data_access.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("cache.tlb_line.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("cache.pte_access.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("cache.l2d.tlb_hit_ratio", "ratio", "higher", "refs_per_s",
             _MISS),
    PerLayer("cache.l3d.tlb_hit_ratio", "ratio", "higher", "refs_per_s",
             _MISS),
    PerLayer("dram.main.calls", "count", "lower", "refs_per_s", _MISS),
    PerLayer("dram.main.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("dram.stacked.calls", "count", "lower", "refs_per_s", _MISS),
    PerLayer("dram.stacked.self_s", "s", "lower", "refs_per_s", _MISS),
    PerLayer("dram.stacked.row_hit_ratio", "ratio", "higher", "refs_per_s",
             _MISS),
    PerLayer("verify.self_s", "s", "lower", "campaign_s", _CHURN),
    PerLayer("verify.violations", "count", "lower", "campaign_s", _CHURN),
    PerLayer("obs.histogram.self_s", "s", "lower", "refs_per_s", _CHURN),
    PerLayer("trace.overhead_pct", "%", "lower", "campaign_s", _ALL),
    PerLayer("trace.unattributed_s", "s", "lower", "campaign_s", _ALL),
)


def benchmark_json(workloads: Dict[str, str]) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document for ``{workload: why}``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads.items()],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def main() -> None:
    from perfbench.workloads import WORKLOADS
    document = benchmark_json({name: WORKLOADS[name].why
                               for name in BENCHMARK_WORKLOADS})
    with open(BENCHMARK_JSON, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    import sys
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    main()
