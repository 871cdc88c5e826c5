"""Differential test: optimized engine == frozen seed-era reference engine.

The fast-path engine rewrite (packed keys, slot counters, dict-ordering
LRU, one merge order per run) promises **bit-identical counters**.
This test holds it to that: for every scheme, a workload replayed through
:mod:`repro.core.refcheck` (the frozen pre-rewrite engine) and through
the optimized :class:`~repro.core.system.Machine` must produce

* identical ``SimulationResult`` scalar fields,
* an identical ``StatRegistry`` snapshot (every group, every counter,
  exact values), and
* identical latency histograms.

This is the contract future optimizations are held to — see the
"Engine performance" section of EXPERIMENTS.md.
"""

import pytest

from repro.core.refcheck import ReferenceMachine
from repro.core.system import Machine
from repro.experiments.runner import ExperimentParams
from repro.obs import Observability
from repro.obs.sinks import ListSink
from repro.obs.tracer import EventTracer
from repro.workloads.packed import decode_container, encode_workload
from repro.workloads.suite import get_profile

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")

#: Small but representative: 2 cores, demand paging, warmup reset,
#: mixed page sizes (gups has a THP fraction), every scheme's miss path
#: exercised thousands of times.
PARAMS = ExperimentParams(num_cores=2, refs_per_core=900, scale=0.1, seed=42)

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")


def _workload(benchmark="gups", params=PARAMS):
    profile = get_profile(benchmark)
    return profile, profile.build(num_cores=params.num_cores,
                                  refs_per_core=params.refs_per_core,
                                  seed=params.seed, scale=params.scale)


def _run_reference(scheme, profile, workload, params=PARAMS):
    machine = ReferenceMachine(params.system_config(), scheme=scheme,
                               thp_large_fraction=profile.thp_large_fraction,
                               seed=params.seed)
    return machine.run(workload.streams,
                       warmup_references=workload.warmup_by_core
                       or workload.warmup_references)


def _machine(scheme, profile, params=PARAMS, **kwargs):
    return Machine(params.system_config(), scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, **kwargs)


def _run_optimized(scheme, profile, workload, params=PARAMS, obs=None):
    machine = _machine(scheme, profile, params, obs=obs)
    return machine.run(workload.streams,
                       warmup_references=workload.warmup_by_core
                       or workload.warmup_references)


def _assert_equivalent(reference, optimized):
    for field in RESULT_FIELDS:
        assert getattr(optimized, field) == getattr(reference, field), (
            f"SimulationResult.{field}: optimized "
            f"{getattr(optimized, field)!r} != reference "
            f"{getattr(reference, field)!r}")
    ref_stats = reference.stats.as_nested_dict()
    new_stats = optimized.stats.as_nested_dict()
    assert sorted(new_stats) == sorted(ref_stats), (
        "stat group sets differ: only-new="
        f"{sorted(set(new_stats) - set(ref_stats))} only-ref="
        f"{sorted(set(ref_stats) - set(new_stats))}")
    for group, counters in ref_stats.items():
        assert new_stats[group] == counters, (
            f"group {group!r}: optimized {new_stats[group]!r} "
            f"!= reference {counters!r}")
    ref_hists = {name: h.as_dict() for name, h in reference.histograms.items()}
    new_hists = {name: h.as_dict() for name, h in optimized.histograms.items()}
    assert new_hists == ref_hists


@pytest.mark.parametrize("scheme", SCHEMES)
def test_counters_bit_identical(scheme):
    profile, workload = _workload()
    reference = _run_reference(scheme, profile, workload)
    optimized = _run_optimized(scheme, profile, workload)
    _assert_equivalent(reference, optimized)


@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_counters_bit_identical_multithreaded(scheme):
    """Shared address space + per-core warmup counts (mapping form)."""
    profile, workload = _workload(benchmark="graph500")
    reference = _run_reference(scheme, profile, workload)
    optimized = _run_optimized(scheme, profile, workload)
    _assert_equivalent(reference, optimized)


def test_counters_identical_with_tracing_enabled():
    """The traced slow path must count exactly like the fast path."""
    profile, workload = _workload()
    reference = _run_reference("pom", profile, workload)
    sink = ListSink()
    obs = Observability(tracer=EventTracer(sinks=[sink]))
    optimized = _run_optimized("pom", profile, workload, obs=obs)
    _assert_equivalent(reference, optimized)
    assert sink.events, "tracer saw no events despite being enabled"


def test_fast_path_equals_traced_path_counters():
    """Tracing on vs off may not change a single counter."""
    profile, workload = _workload()
    plain = _run_optimized("pom", profile, workload)
    traced = _run_optimized(
        "pom", profile, workload,
        obs=Observability(tracer=EventTracer(sinks=[ListSink()])))
    assert (traced.stats.as_nested_dict()
            == plain.stats.as_nested_dict())
    for field in RESULT_FIELDS:
        assert getattr(traced, field) == getattr(plain, field)


# -- further inputs: zero-copy packed streams, warm replay, verifier ------


def _decoded(workload):
    """The workload's streams as zero-copy columns of a packed container."""
    return decode_container(encode_workload(workload)).streams


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_engine_bit_identical(scheme):
    """Packed (memoryview-column) input == frozen reference, every scheme."""
    profile, workload = _workload()
    reference = _run_reference(scheme, profile, workload)
    machine = _machine(scheme, profile)
    warm = workload.warmup_by_core or workload.warmup_references
    _assert_equivalent(reference, machine.run(_decoded(workload),
                                              warmup_references=warm))


@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_batch_engine_bit_identical_multithreaded(scheme):
    """Packed input, shared address space, per-core warmup counts."""
    profile, workload = _workload(benchmark="graph500")
    reference = _run_reference(scheme, profile, workload)
    machine = _machine(scheme, profile)
    warm = workload.warmup_by_core or workload.warmup_references
    _assert_equivalent(reference, machine.run(_decoded(workload),
                                              warmup_references=warm))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_engine_warm_replay_identical(scheme):
    """A second ``run()`` on the same machine stays bit-identical."""
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    ref = ReferenceMachine(PARAMS.system_config(), scheme=scheme,
                           thp_large_fraction=profile.thp_large_fraction,
                           seed=PARAMS.seed)
    ref.run(workload.streams, warmup_references=warm)
    reference = ref.run(workload.streams, warmup_references=warm)
    machine = _machine(scheme, profile)
    machine.run(workload.streams, warmup_references=warm)
    _assert_equivalent(reference, machine.run(workload.streams,
                                              warmup_references=warm))


def test_batch_requested_verify_armed_still_identical():
    """Every consistency checker armed: still bit-identical."""
    profile, workload = _workload()
    reference = _run_reference("pom", profile, workload)
    machine = _machine("pom", profile, verify=True)
    warm = workload.warmup_by_core or workload.warmup_references
    _assert_equivalent(reference, machine.run(_decoded(workload),
                                              warmup_references=warm))
