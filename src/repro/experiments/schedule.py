"""Makespan-aware campaign scheduling: longest expected runs first.

With a process pool of width W, dispatching runs in enumeration order
can strand the pool's tail: a long run launched last keeps one worker
busy while W-1 idle.  The classic LPT (longest-processing-time-first)
heuristic bounds that waste at 1/3 of optimal; for the campaign's run
mix — per-scheme throughput differing by ~2x and sensitivity sweeps
mixing core counts — it is the difference between the pool draining
evenly and one straggler defining the makespan.

Expected run length is ``references / refs_per_sec(scheme)``.  The
per-scheme rates come from the engine benchmark's committed results
(``BENCH_engine.json``, section ``engine_throughput`` — see
benchmarks/test_bench_engine_throughput.py); machines without that file
fall back to frozen defaults capted from the same benchmark.  Accuracy
barely matters — LPT only needs the *ordering* to be roughly right —
so stale rates degrade the schedule, never the results.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional

#: Cold-run refs/sec per scheme, as an earlier BENCH_engine.json
#: recorded them; used when no benchmark results file is on disk.  Only
#: the relative magnitudes matter (they order runs longest-first):
#: shared_l2 runs ~2x faster than the POM variants.
DEFAULT_REFS_PER_SEC: Dict[str, float] = {
    "baseline": 7800.0,
    "pom": 5400.0,
    "pom_skewed": 5600.0,
    "shared_l2": 10000.0,
    "tsb": 5600.0,
}

_FALLBACK_RATE = 6000.0  # unknown schemes: mid-pack guess


def load_rates(path: str = "BENCH_engine.json") -> Dict[str, float]:
    """Per-scheme refs/sec from the engine benchmark results, if present.

    Any problem — missing file, damaged JSON, absent section — falls
    back to :data:`DEFAULT_REFS_PER_SEC`; scheduling must never make a
    campaign fail.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
        schemes = document["engine_throughput"]["schemes"]
        rates = {scheme: float(entry["refs_per_sec"])
                 for scheme, entry in schemes.items()
                 if float(entry.get("refs_per_sec", 0)) > 0}
    except (OSError, ValueError, KeyError, TypeError):
        return dict(DEFAULT_REFS_PER_SEC)
    if not rates:
        return dict(DEFAULT_REFS_PER_SEC)
    return {**DEFAULT_REFS_PER_SEC, **rates}


def expected_cost(request, rates: Dict[str, float]) -> float:
    """Expected wall-clock seconds for one run request.

    References scale with ``num_cores * refs_per_core`` (warmup
    prologues add a roughly constant factor on top, which cannot change
    the ordering); the divisor is the scheme's measured replay rate.
    """
    params = request.params
    references = params.num_cores * params.refs_per_core
    rate = rates.get(request.scheme, _FALLBACK_RATE)
    return references / rate


def cost_function(path: str = "BENCH_engine.json",
                  rates: Optional[Dict[str, float]] = None
                  ) -> Callable[[object], float]:
    """A ``request -> expected seconds`` callable for ``execute_runs``.

    Rates are resolved once up front (not per request): the executor
    sorts its queue with this, so it must be cheap and stable.
    """
    resolved = rates if rates is not None else load_rates(path)
    return lambda request: expected_cost(request, resolved)


def predicted_costs(requests, cost: Callable[[object], float],
                    key: Callable[[object], str]) -> Dict[str, float]:
    """Schedule predictions keyed by run key, for calibration tracking.

    The campaign feeds these into the telemetry LPT-accuracy tracker
    before any run executes; pairing each prediction with the measured
    wall time afterwards yields the calibration error (MAPE/bias) that
    tells whether ``BENCH_engine.json`` rates have drifted from the
    machine actually running the campaign.
    """
    return {key(request): cost(request) for request in requests}
