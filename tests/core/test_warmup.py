"""Unit tests for steady-state (warmup) measurement semantics."""

import pytest

from repro.common import addr
from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.trace import CoreStream, MemoryReference


def two_pass_stream(pages=3000):
    """Two sequential passes over a footprint bigger than the L2 TLB."""
    refs = []
    icount = 0
    for _ in range(2):
        for p in range(pages):
            icount += 10
            refs.append(MemoryReference(icount, p * addr.SMALL_PAGE_SIZE,
                                        False))
    return CoreStream(core=0, vm_id=0, asid=1, references=refs), pages


class TestWarmup:
    def test_warmup_excludes_compulsory_misses(self):
        stream, pages = two_pass_stream()
        cold = Machine(SystemConfig(num_cores=1), scheme="pom")
        warm = Machine(SystemConfig(num_cores=1), scheme="pom")
        r_cold = cold.run([stream])
        r_warm = warm.run([stream], warmup_references=pages)
        # Without warmup, first-touch walks dominate; with warmup, the
        # POM-TLB already holds everything and no walk remains.
        assert r_cold.page_walks == pages
        assert r_warm.page_walks == 0
        assert r_warm.references == pages  # only the measured pass counts

    def test_warmup_resets_all_statistics(self):
        stream, pages = two_pass_stream()
        machine = Machine(SystemConfig(num_cores=1), scheme="pom")
        result = machine.run([stream], warmup_references=pages)
        # Eviction/fill counters must reflect only the measured phase:
        # the POM flow counters cannot exceed measured misses * 2 sizes.
        flow = result.stats["pom_flow"]
        resolved = (flow["resolved_first_try"] + flow["resolved_second_try"]
                    + flow["resolved_by_walk"])
        assert resolved == result.l2_tlb_misses

    def test_warmup_preserves_structure_state(self):
        stream, pages = two_pass_stream()
        machine = Machine(SystemConfig(num_cores=1), scheme="pom")
        machine.run([stream], warmup_references=pages)
        # The POM-TLB still holds the warmup-phase insertions.
        assert machine.scheme.pom.occupancy()["small"] == pages

    def test_instructions_count_measured_phase_only(self):
        stream, pages = two_pass_stream()
        machine = Machine(SystemConfig(num_cores=1), scheme="baseline")
        result = machine.run([stream], warmup_references=pages)
        assert result.instructions == pytest.approx(pages * 10, rel=0.01)

    def test_warmup_consuming_whole_trace_rejected(self):
        stream, pages = two_pass_stream(pages=50)
        machine = Machine(SystemConfig(num_cores=1), scheme="baseline")
        with pytest.raises(ValueError):
            machine.run([stream], warmup_references=10 * len(stream))

    def test_zero_warmup_is_default_behaviour(self):
        stream, _ = two_pass_stream(pages=100)
        a = Machine(SystemConfig(num_cores=1), scheme="baseline")
        b = Machine(SystemConfig(num_cores=1), scheme="baseline")
        assert a.run([stream]).l2_tlb_misses == \
            b.run([stream], warmup_references=0).l2_tlb_misses


def forty_reference_streams():
    """Two cores, 20 references each, interleaved one for one."""
    return [CoreStream(core=core, vm_id=0, asid=core + 1, references=[
        MemoryReference(10 * (i + 1), (core * 64 + i) * addr.SMALL_PAGE_SIZE,
                        i % 3 == 0) for i in range(20)]) for core in (0, 1)]


def counting_machine(scheme="pom"):
    """A machine whose ``translated`` counts translations so far."""
    machine = Machine(SystemConfig(num_cores=2), scheme=scheme)
    machine.translated = 0
    translate = machine.scheme.translate_packed

    def counted(*args):
        machine.translated += 1
        return translate(*args)

    machine.scheme.translate_packed = counted
    return machine


class TestMaxReferencesAfterWarmup:
    """``max_references`` counts measured references only.

    The frozen reference engine (repro.core.refcheck) keeps the old
    behaviour, where a cap at or below the warm-up raised; the
    equivalence suite only uses ``max_references`` without a warm-up.
    """

    @pytest.mark.parametrize("cap", (0, 5, 10, 25))
    def test_cap_at_or_below_warmup_measures_exactly_cap(self, cap):
        machine = counting_machine()
        result = machine.run(forty_reference_streams(),
                             warmup_references=10, max_references=cap)
        assert result.references == cap
        assert machine.translated == 10 + cap

    def test_negative_cap_rejected(self):
        machine = counting_machine()
        with pytest.raises(ValueError, match="max_references"):
            machine.run(forty_reference_streams(), max_references=-1)
        assert machine.translated == 0

    @pytest.mark.parametrize("warmup", (10, {0: 5, 1: 5}))
    def test_capped_run_equals_run_of_truncated_trace(self, warmup):
        # The first 20 merge positions are the first 10 references of
        # each core, so truncating each stream is the same replay.
        truncated = [CoreStream(core=s.core, vm_id=s.vm_id, asid=s.asid,
                                references=s.references[:10])
                     for s in forty_reference_streams()]
        capped = counting_machine().run(forty_reference_streams(),
                                        warmup_references=warmup,
                                        max_references=10)
        whole = counting_machine().run(truncated, warmup_references=warmup)
        for field in ("references", "instructions", "l2_tlb_misses",
                      "penalty_cycles", "translation_cycles", "data_cycles",
                      "page_walks"):
            assert getattr(capped, field) == getattr(whole, field), field
        assert capped.instructions == 2 * (100 - 50)
        assert (capped.stats.as_nested_dict()
                == whole.stats.as_nested_dict())

    @pytest.mark.parametrize("warmup", (40, 41, {0: 5, 1: 21}, {2: 1}))
    def test_warmup_that_cannot_complete_raises_before_replay(self, warmup):
        machine = counting_machine()
        with pytest.raises(ValueError, match="consumed the whole trace"):
            machine.run(forty_reference_streams(), warmup_references=warmup,
                        max_references=5)
        assert machine.translated == 0
        assert not machine.host.vms, "rejected before any reference replayed"
