"""Edge cases of the replay loop (``Machine.run``).

The integration suite (tests/integration/test_engine_equivalence.py)
holds the loop bit-identical to the frozen reference at workload scale.
This module aims at the seams instead: a warm-up reset and a
``max_references`` cap landing mid-stream, degenerate streams,
invalidations between runs, tuple vs packed input, the merge order the
loop replays, exactly where scheduled events fire, and what records
before the warm-up boundary.

Event-free cases compare against :mod:`repro.core.refcheck`; cases the
reference cannot model (shootdown, teardown) compare against counters
recorded from the engine they replaced.
"""

from dataclasses import replace

import pytest

from repro.core.refcheck import ReferenceMachine
from repro.core.system import Machine
from repro.experiments.runner import ExperimentParams, simulate_run
from repro.obs import Observability, events as obs_events
from repro.obs.histogram import LogHistogram
from repro.obs.sinks import ListSink
from repro.obs.tracer import EventTracer
from repro.workloads.lifecycle import LifecycleEvent
from repro.workloads.packed import pack_stream
from repro.workloads.suite import get_profile
from repro.workloads.trace import (CoreStream, MemoryReference, interleave,
                                   merge_order)

PARAMS = ExperimentParams(num_cores=2, refs_per_core=700, scale=0.1, seed=11)

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")


def _workload(params=PARAMS, benchmark="gups"):
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    return profile, workload


def _machine(profile, scheme="pom", params=PARAMS, **kwargs):
    return Machine(params.system_config(), scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, **kwargs)


def _reference(profile, scheme="pom", params=PARAMS, **kwargs):
    return ReferenceMachine(params.system_config(), scheme=scheme,
                            thp_large_fraction=profile.thp_large_fraction,
                            seed=params.seed, **kwargs)


def _assert_same(expected, result, observed=False):
    """Scalars and counters; with ``observed``, histograms and windows too."""
    for field in RESULT_FIELDS:
        assert getattr(result, field) == getattr(expected, field), field
    assert (result.stats.as_nested_dict()
            == expected.stats.as_nested_dict())
    if observed:
        assert ({name: h.as_dict() for name, h in result.histograms.items()}
                == {name: h.as_dict()
                    for name, h in expected.histograms.items()})
        assert result.windows.rows == expected.windows.rows
        assert result.windows.rows, "windows must cover the measured part"


def _warmup(workload):
    return workload.warmup_by_core or workload.warmup_references


#: Workload fields holding the two forms of ``warmup_references``: a
#: global count and per-core counts.
WARMUP_FORMS = ("warmup_references", "warmup_by_core")


# -- refcheck equivalence at the seams -------------------------------------


def _check_warmup_seam(form):
    profile, workload = _workload()
    warm = getattr(workload, form)
    assert warm, "workload must actually exercise the warmup reset"
    reference = _reference(profile, obs=Observability(window=300)).run(
        workload.streams, warmup_references=warm)
    _assert_same(reference, _machine(
        profile, obs=Observability(window=300)).run(
            workload.streams, warmup_references=warm), observed=True)


def test_warmup_reset_mid_slice():
    """The warm-up reset lands mid-stream and zeroes tallies exactly.

    Per-core form.  Histograms and window rows match the reference too,
    although the reference records the warm-up and erases it while the
    engine does not record it at all.
    """
    _check_warmup_seam("warmup_by_core")


def test_warmup_reset_mid_slice_global_count():
    """The same seam with the global ``int`` warm-up count."""
    _check_warmup_seam("warmup_references")


def test_max_references_truncates_identically():
    profile, workload = _workload()
    # A cap that lands mid-stream.
    cap = sum(len(s) for s in workload.streams) // 3 + 7
    reference = _reference(profile).run(workload.streams,
                                        max_references=cap)
    result = _machine(profile).run(workload.streams, max_references=cap)
    assert result.references == cap
    _assert_same(reference, result)


def _tiny_stream(core=0, vm_id=1, asid=1, refs=()):
    return CoreStream(core=core, vm_id=vm_id, asid=asid,
                      references=[MemoryReference(*r) for r in refs])


def test_single_reference_stream():
    profile, _ = _workload()
    streams = [_tiny_stream(refs=[(0, 0x1234, False)])]
    result = _machine(profile).run(streams)
    assert result.references == 1
    _assert_same(_reference(profile).run(streams), result)


def test_empty_streams_fall_back_to_scalar():
    """All-empty input replays nothing and counts nothing."""
    profile, _ = _workload()
    streams = [_tiny_stream(), _tiny_stream(core=1)]
    machine = _machine(profile)
    result = machine.run(streams)
    assert result.references == 0
    assert machine.last_replay_mode == "scalar"
    _assert_same(_reference(profile).run(streams), result)


def test_empty_stream_beside_live_stream():
    profile, _ = _workload()
    streams = [_tiny_stream(core=0),
               _tiny_stream(core=1, refs=[(0, 0x2000, False),
                                          (3, 0x4000, True)])]
    _assert_same(_reference(profile).run(streams),
                 _machine(profile).run(streams))


# -- invalidations between runs --------------------------------------------
#
# Second-run counters (no warm-up, so the invalidation shows) and the
# shootdown cost / dropped count, as the replaced engine produced them.

_SHOOTDOWN_BETWEEN_RUNS = {
    "pom": dict(cost=256, references=4264, instructions=21320,
                l2_tlb_misses=1, penalty_cycles=836,
                translation_cycles=34431, data_cycles=665915,
                page_walks=1),
    "tsb": dict(cost=331, references=4264, instructions=21320,
                l2_tlb_misses=1, penalty_cycles=1086,
                translation_cycles=34681, data_cycles=665795,
                page_walks=1),
    "shared_l2": dict(cost=121, references=4264, instructions=21320,
                      l2_tlb_misses=1, penalty_cycles=15370,
                      translation_cycles=47373, data_cycles=665795,
                      page_walks=1),
}

_INVALIDATE_VM_BETWEEN_RUNS = dict(
    dropped=2864, references=4264, instructions=21320, l2_tlb_misses=2864,
    penalty_cycles=390103, translation_cycles=423734, data_cycles=688279,
    page_walks=2864)


def _counters(result, **extra):
    return dict(extra, **{field: getattr(result, field)
                          for field in RESULT_FIELDS[1:]})


@pytest.mark.parametrize("scheme", ("pom", "tsb", "shared_l2"))
def test_shootdown_between_runs(scheme):
    """TLB shootdown state replays into the next run as recorded."""
    profile, workload = _workload()
    target = workload.streams[0]
    machine = _machine(profile, scheme=scheme)
    machine.run(workload.streams, warmup_references=_warmup(workload))
    cost = machine.shootdown(target.vm_id, target.asid,
                             target.references[0].vaddr)
    second = machine.run(workload.streams)
    assert (_counters(second, cost=cost)
            == _SHOOTDOWN_BETWEEN_RUNS[scheme])


def test_invalidate_vm_between_runs():
    """A whole-VM invalidation (teardown) between runs, as recorded."""
    profile, workload = _workload()
    machine = _machine(profile)
    machine.run(workload.streams, warmup_references=_warmup(workload))
    dropped = machine.invalidate_vm(workload.streams[0].vm_id)
    second = machine.run(workload.streams)
    assert _counters(second, dropped=dropped) == _INVALIDATE_VM_BETWEEN_RUNS


# -- input forms -----------------------------------------------------------


def test_tuple_streams_fall_back():
    """Tuple streams are packed on entry: same results as packed input."""
    profile, workload = _workload()
    warm = _warmup(workload)
    packed = [pack_stream(s) for s in workload.streams]
    _assert_same(_machine(profile).run(packed, warmup_references=warm),
                 _machine(profile).run(workload.streams,
                                       warmup_references=warm))


def test_batch_disabled_by_flag():
    """``ExperimentParams.batch`` is accepted and changes nothing."""
    small = replace(PARAMS, refs_per_core=300)
    default = simulate_run("gups", "pom", small)
    disabled = simulate_run("gups", "pom", replace(small, batch=False))
    _assert_same(default.result, disabled.result)


def test_decreasing_icounts_rejected():
    profile, _ = _workload()
    streams = [_tiny_stream(refs=[(0, 0x1000, False), (5, 0x2000, False),
                                  (4, 0x3000, False)])]
    machine = _machine(profile)
    with pytest.raises(ValueError, match="instruction counts decrease"):
        machine.run(streams)
    assert not machine.host.vms, "rejected before any reference replayed"


# -- merge-order property --------------------------------------------------


def test_lexsort_order_matches_heap_merge():
    """merge_order's one sort == interleave's k-way heap merge.

    Heavy icount ties across cores and within a core (two streams
    sharing core 1), one empty stream, and mixed tuple/packed input;
    the orders must agree reference for reference.
    """
    streams = [
        _tiny_stream(core=1, asid=2,
                     refs=[(0, 0x5000, False), (5, 0x6000, False),
                           (7, 0x7000, False)]),
        _tiny_stream(core=0, asid=1,
                     refs=[(0, 0x1000, False), (5, 0x2000, False),
                           (5, 0x3000, False), (9, 0x4000, False)]),
        _tiny_stream(core=2, asid=4),
        pack_stream(_tiny_stream(core=1, asid=3,
                                 refs=[(5, 0x8000, False), (5, 0x9000, True),
                                       (9, 0xA000, False)])),
    ]
    sources, positions = merge_order(streams)
    ordered = [(id(streams[s]), streams[s].references[i])
               for s, i in zip(sources, positions)]
    assert ordered == [(id(stream), ref)
                       for stream, ref in interleave(streams)]


# -- event positions -------------------------------------------------------


class _Probe:
    """Event that records how many references were replayed before it."""

    def __init__(self, position, seen):
        self.position = position
        self._seen = seen

    def apply(self, machine):
        self._seen.append((self.position, machine.translated))


def _counting_machine(profile, **kwargs):
    """A machine whose ``translated`` counts translations so far."""
    machine = _machine(profile, **kwargs)
    machine.translated = 0
    translate = machine.scheme.translate_packed

    def counted(*args):
        machine.translated += 1
        return translate(*args)

    machine.scheme.translate_packed = counted
    return machine


def _probe_streams():
    # Core 0 issues 0,1,2 then core 1 issues 3,4, then core 0 again: the
    # replaced engine replayed this as chunks [0,3) [3,5) [5,6).
    return [_tiny_stream(core=0, asid=1,
                         refs=[(0, 0x1000, False), (1, 0x2000, False),
                               (2, 0x3000, False), (9, 0x4000, False)]),
            _tiny_stream(core=1, asid=2,
                         refs=[(3, 0x5000, False), (4, 0x6000, False)])]


@pytest.mark.parametrize("position", (0, 2, 3, 6, 9))
def test_events_fire_after_exactly_position_references(position):
    """0, mid-run, a former chunk boundary, the end, and past the end."""
    profile, _ = _workload()
    streams = _probe_streams()
    total = sum(len(s) for s in streams)
    seen = []
    _counting_machine(profile).run(streams, events=[_Probe(position, seen)])
    assert seen == [(position, min(position, total))]


def test_events_never_fire_past_max_references():
    profile, _ = _workload()
    seen = []
    events = [_Probe(p, seen) for p in (1, 3, 4, 6)]
    result = _counting_machine(profile).run(_probe_streams(),
                                            max_references=3, events=events)
    assert result.references == 3
    assert seen == [(1, 1)]


# -- mid-run lifecycle events ----------------------------------------------


def _storm_events(workload):
    # Past the warmup prologue, so the fired shootdowns survive the
    # warmup-boundary stats reset and are visible in the results.
    warmup_total = sum(workload.warmup_by_core.values()) or \
        workload.warmup_references
    target = workload.streams[0]
    return [LifecycleEvent(position=warmup_total + 50, kind="shootdown",
                           vm_id=target.vm_id, asid=target.asid,
                           vaddr=target.references[-100].vaddr),
            LifecycleEvent(position=warmup_total + 200, kind="shootdown",
                           vm_id=target.vm_id, asid=target.asid,
                           vaddr=target.references[-50].vaddr)]


def test_events_force_scalar_with_recorded_reason():
    """Events replay on the one loop, tuple and packed input alike."""
    profile, workload = _workload()
    warm = _warmup(workload)
    events = _storm_events(workload)
    machine = _machine(profile)
    result = machine.run(workload.streams, warmup_references=warm,
                         events=events)
    assert machine.last_replay_mode == "scalar"
    assert machine.stats["mmu"]["shootdowns"] == 2
    packed = _machine(profile).run([pack_stream(s) for s in workload.streams],
                                   warmup_references=warm, events=events)
    _assert_same(result, packed)


def test_destroy_vm_event_replays_identically():
    """A mid-run teardown re-boots the VM on its next reference."""
    profile, workload = _workload()
    warm = _warmup(workload)
    vm_id = workload.streams[0].vm_id
    position = (sum(workload.warmup_by_core.values())
                or workload.warmup_references) + 100
    events = [LifecycleEvent(position=position, kind="destroy_vm",
                             vm_id=vm_id)]
    machine = _machine(profile)
    result = machine.run(workload.streams, warmup_references=warm,
                         events=events)
    assert vm_id in machine.host.vms, "the stream's next reference re-boots"
    again = _machine(profile).run(workload.streams, warmup_references=warm,
                                  events=events)
    _assert_same(result, again)
    plain = _machine(profile).run(workload.streams, warmup_references=warm)
    assert result.page_walks > plain.page_walks


# -- the warm-up boundary --------------------------------------------------


@pytest.mark.parametrize("offset, shootdowns", ((0, 0), (1, 1)))
def test_event_at_boundary_fires_before_the_reset(offset, shootdowns):
    """An event at the boundary is wiped by the reset; one later stays."""
    profile, workload = _workload()
    boundary = workload.warmup_references
    target = workload.streams[0]
    event = LifecycleEvent(position=boundary + offset,
                           kind="shootdown", vm_id=target.vm_id,
                           asid=target.asid,
                           vaddr=target.references[-1].vaddr)
    machine = _machine(profile)
    machine.run(workload.streams, warmup_references=boundary, events=[event])
    assert machine.stats["mmu"]["shootdowns"] == shootdowns


@pytest.mark.parametrize("form", WARMUP_FORMS)
def test_histograms_record_nothing_before_the_boundary(form, monkeypatch):
    """No histogram sample during warm-up; the tracer sees all of it."""
    profile, workload = _workload()
    warm = getattr(workload, form)
    sink = ListSink()
    machine = _counting_machine(profile, obs=Observability(
        tracer=EventTracer(sinks=[sink])))
    recorded_at = []
    record = LogHistogram.record

    def spy(histogram, value):
        recorded_at.append(machine.translated)
        record(histogram, value)

    monkeypatch.setattr(LogHistogram, "record", spy)
    result = machine.run(workload.streams, warmup_references=warm)
    boundary = machine.translated - result.references
    assert boundary > 0
    assert recorded_at and min(recorded_at) == boundary + 1
    markers = [i for i, event in enumerate(sink.events)
               if event["type"] == obs_events.MARKER]
    assert [sink.events[i]["name"] for i in markers] == ["stats_reset"]
    translations = [i for i, event in enumerate(sink.events)
                    if event["type"] == obs_events.TRANSLATION]
    assert sum(i < markers[0] for i in translations) == boundary
    assert len(translations) == machine.translated
