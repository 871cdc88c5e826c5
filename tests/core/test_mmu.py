"""Unit tests for the translation schemes (paper Figure 7 flow and baselines)."""

import dataclasses

import pytest

from repro.common import addr
from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.trace import CoreStream, MemoryReference


def make_machine(scheme, large_fraction=0.0, **config_overrides):
    config = SystemConfig(num_cores=2).copy_with(**config_overrides)
    return Machine(config, scheme=scheme, thp_large_fraction=large_fraction,
                   seed=7)


def translate(machine, vaddr, core=0, vm=0, asid=1):
    page = machine.touch(vm, asid, vaddr)
    return machine.scheme.translate(core, vm, asid, vaddr, page)


class TestFrontEnd:
    """L1/L2 TLB behaviour shared by all schemes."""

    def test_first_access_misses_l2(self):
        m = make_machine("baseline")
        result = translate(m, 0x1000)
        assert result.l2_miss
        assert result.penalty > 0

    def test_repeat_access_hits_l1(self):
        m = make_machine("baseline")
        translate(m, 0x1000)
        result = translate(m, 0x1000)
        assert not result.l2_miss
        assert result.penalty == 0
        assert result.cycles == 1  # L1 TLB latency

    def test_l1_evicted_entry_hits_l2(self):
        m = make_machine("baseline")
        translate(m, 0x1000)
        # Blow the L1 set (4 ways, 16 sets -> stride of 16 pages) with a
        # few fills while staying well inside the 12-way L2 TLB sets.
        for i in range(1, 30):
            translate(m, 0x1000 + i * addr.SMALL_PAGE_SIZE * 16)
        result = translate(m, 0x1000)
        assert not result.l2_miss
        assert result.cycles == 1 + 9  # L1 + L2 latency

    def test_penalty_includes_l2_miss_overhead(self):
        m = make_machine("baseline")
        result = translate(m, 0x1000)
        assert result.penalty >= m.config.mmu.l2_unified.miss_penalty_cycles

    def test_large_pages_use_the_large_l1(self):
        m = make_machine("baseline", large_fraction=1.0)
        translate(m, 0x1000)
        stats = m.stats["core0.l1_tlb_2m"]
        assert stats["misses"] == 1
        assert m.stats["core0.l1_tlb_4k"]["misses"] == 0


class TestBaselineWalkScheme:
    def test_every_l2_miss_walks(self):
        m = make_machine("baseline")
        for va in (0x1000, 0x2000, 0x3000):
            translate(m, va)
        assert m.stats["mmu"]["page_walks"] == 3

    def test_walk_cycles_accumulate(self):
        m = make_machine("baseline")
        translate(m, 0x1000)
        assert m.stats["mmu"]["page_walk_cycles"] > 0


class TestPomTlbScheme:
    def test_first_miss_walks_and_fills_pom(self):
        m = make_machine("pom")
        translate(m, 0x1000)
        assert m.stats["mmu"]["page_walks"] == 1
        assert m.stats["pom_flow"]["resolved_by_walk"] == 1

    def test_pom_hit_after_private_tlbs_flushed(self):
        m = make_machine("pom")
        translate(m, 0x1000)
        # Drop only the private SRAM TLBs; POM keeps the entry.
        for tlbs in m.scheme.cores:
            tlbs.l1_small.flush()
            tlbs.l2.flush()
        result = translate(m, 0x1000)
        assert result.l2_miss
        assert m.stats["mmu"]["page_walks"] == 1  # no second walk
        assert m.stats["pom_flow"]["resolved_first_try"] == 1

    def test_pom_resolution_is_cheaper_than_walk(self):
        m = make_machine("pom")
        first = translate(m, 0x1000)
        for tlbs in m.scheme.cores:
            tlbs.l1_small.flush()
            tlbs.l2.flush()
        second = translate(m, 0x1000)
        assert second.penalty < first.penalty

    def test_entry_is_shared_across_cores(self):
        m = make_machine("pom")
        translate(m, 0x1000, core=0)
        result = translate(m, 0x1000, core=1)
        assert result.l2_miss  # core 1's private TLBs were cold
        assert m.stats["mmu"]["page_walks"] == 1  # but POM had it

    def test_set_fetch_prefers_data_caches(self):
        m = make_machine("pom")
        # Access 1: walk + fill.  The bypass bit trains toward bypass
        # (the line was not cached before the walk), so access 2 goes to
        # DRAM, observes the line is now cached, and untrains.  Access 3
        # probes the data caches and hits.
        for _ in range(3):
            translate(m, 0x1000)
            for tlbs in m.scheme.cores:
                tlbs.l1_small.flush()
                tlbs.l2.flush()
        flow = m.stats["pom_flow"]
        assert flow["set_from_l2"] + flow["set_from_l3"] >= 1

    def test_caching_disabled_goes_straight_to_dram(self):
        m = make_machine("pom", cache_tlb_entries=False)
        translate(m, 0x1000)
        flow = m.stats["pom_flow"]
        assert flow["set_from_dram_uncached"] >= 1
        assert flow.get("set_from_l2", 0) == 0

    def test_size_predictor_learns_large_pages(self):
        m = make_machine("pom", large_fraction=1.0)
        translate(m, 0x1000)          # mispredicts small first
        flow_before = m.stats["pom_flow"]["resolved_second_try"]
        for tlbs in m.scheme.cores:
            tlbs.l1_large.flush()
            tlbs.l2.flush()
        translate(m, 0x1000)          # now predicts large
        assert m.stats["core0.predictor"]["size_wrong"] == 1
        assert m.stats["core0.predictor"]["size_correct"] >= 1

    def test_translation_correctness_under_pom(self):
        m = make_machine("pom")
        page = m.touch(0, 1, 0x1000)
        m.scheme.translate(0, 0, 1, 0x1000, page)
        entry = m.scheme.pom.probe(
            0x1000, _key(m, 0, 1, 0x1000, page.large))
        assert entry.ppn == page.host_frame >> addr.SMALL_PAGE_SHIFT


def _key(machine, vm, asid, vaddr, large):
    from repro.tlb.entry import TlbKey
    return TlbKey(vm_id=vm, asid=asid,
                  vpn=vaddr >> addr.page_shift(large), large=large).pack()


class TestSharedL2Scheme:
    def test_shared_hit_counts_extra_latency_as_penalty(self):
        m = make_machine("shared_l2")
        translate(m, 0x1000)  # cold: walk
        # Evict from core-0 L1 only (L1 is tiny); shared retains it.
        m.scheme.cores[0].l1_small.flush()
        result = translate(m, 0x1000)
        assert not result.l2_miss
        assert result.penalty > 0  # shared array slower than private L2

    def test_entry_shared_across_cores_without_walk(self):
        m = make_machine("shared_l2")
        translate(m, 0x1000, core=0)
        translate(m, 0x1000, core=1)
        assert m.stats["mmu"]["page_walks"] == 1

    def test_miss_walks(self):
        m = make_machine("shared_l2")
        translate(m, 0x1000)
        assert m.stats["mmu"]["page_walks"] == 1
        assert m.stats["mmu"]["l2_tlb_misses"] == 1


class TestTsbScheme:
    def test_tsb_miss_walks_and_fills(self):
        m = make_machine("tsb")
        translate(m, 0x1000)
        assert m.stats["mmu"]["page_walks"] == 1
        assert m.scheme.tsb.occupancy() == {"guest": 1, "host": 1}

    def test_tsb_hit_avoids_walk(self):
        m = make_machine("tsb")
        translate(m, 0x1000)
        for tlbs in m.scheme.cores:
            tlbs.l1_small.flush()
            tlbs.l2.flush()
        result = translate(m, 0x1000)
        assert result.l2_miss
        assert m.stats["mmu"]["page_walks"] == 1

    def test_every_miss_pays_the_trap(self):
        m = make_machine("tsb")
        result = translate(m, 0x1000)
        assert result.penalty >= m.scheme.tsb_config.trap_cycles

    def test_tsb_hit_still_pays_trap_plus_two_accesses(self):
        m = make_machine("tsb")
        translate(m, 0x1000)
        for tlbs in m.scheme.cores:
            tlbs.l1_small.flush()
            tlbs.l2.flush()
        result = translate(m, 0x1000)
        # Trap plus two dependent memory accesses (L1 hits at best).
        assert result.penalty >= m.scheme.tsb_config.trap_cycles + 8


class TestShootdown:
    @pytest.mark.parametrize("scheme", ["baseline", "pom", "shared_l2", "tsb"])
    def test_shootdown_forces_rewalk(self, scheme):
        m = make_machine(scheme)
        translate(m, 0x1000)
        walks_before = m.stats["mmu"]["page_walks"]
        m.scheme.shootdown(0, 1, 0x1000, large=False)
        result = translate(m, 0x1000)
        assert result.l2_miss
        assert m.stats["mmu"]["page_walks"] == walks_before + 1

    def test_shootdown_counter(self):
        m = make_machine("pom")
        translate(m, 0x1000)
        m.scheme.shootdown(0, 1, 0x1000, large=False)
        assert m.stats["mmu"]["shootdowns"] == 1


class TestMakeScheme:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_machine("magic")


def _cached_entries(machine, key, vaddr):
    """Every entry the scheme's structures hold for ``key`` (core 0)."""
    scheme = machine.scheme
    found = [scheme.cores[0].l1_small.lookup(key)]
    if scheme.name == "shared_l2":
        found += [scheme.shared.lookup(key), scheme._shadow[0].lookup(key)]
    else:
        found.append(scheme.cores[0].l2.lookup(key))
    if scheme.name == "pom":
        found.append(scheme.pom.probe(vaddr, key))
    elif scheme.name == "pom_skewed":
        found += [entry for way, slot, _line in scheme.pom.candidates(key)
                  if (entry := scheme.pom.probe_slot(key, way, slot))
                  is not None]
    return found


class TestOneEntryPerPage:
    """Demand paging builds one frozen TlbEntry; every structure shares it."""

    @pytest.mark.parametrize("scheme", ("baseline", "pom", "pom_skewed",
                                        "shared_l2", "tsb"))
    def test_miss_inserts_the_pages_entry_everywhere(self, scheme):
        m = make_machine(scheme)
        page = m.touch(0, 1, 0x5000)
        assert translate(m, 0x5000).l2_miss
        found = _cached_entries(m, _key(m, 0, 1, 0x5000, False), 0x5000)
        expected = {"pom": 3, "pom_skewed": 3, "shared_l2": 3}.get(scheme, 2)
        assert len(found) == expected
        assert all(entry is page.tlb_entry for entry in found)
        assert page.tlb_entry.ppn == page.host_frame >> addr.SMALL_PAGE_SHIFT

    def test_l2_hit_refills_l1_with_the_same_entry(self):
        m = make_machine("baseline")
        page = m.touch(0, 1, 0x5000)
        translate(m, 0x5000)
        m.scheme.cores[0].l1_small.flush()
        assert not translate(m, 0x5000).l2_miss
        key = _key(m, 0, 1, 0x5000, False)
        assert m.scheme.cores[0].l1_small.lookup(key) is page.tlb_entry

    def test_entry_is_frozen(self):
        page = make_machine("pom").touch(0, 1, 0x5000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            page.tlb_entry.ppn = 1

    def test_machines_on_one_adopted_host_insert_the_same_object(self):
        config = SystemConfig(num_cores=1)
        stream = CoreStream(core=0, vm_id=0, asid=1, references=[
            MemoryReference(10 * (i + 1), i * addr.SMALL_PAGE_SIZE, False)
            for i in range(32)])
        builder = Machine(config, scheme="baseline", seed=7)
        builder.run([stream])
        adopters = [Machine(config, scheme="pom", seed=7, host=builder.host)
                    for _ in range(2)]
        for machine in adopters:
            machine.run([stream])
        for vaddr in (0, 17 * addr.SMALL_PAGE_SIZE):
            page = builder.host.vms[0].resolve(1, vaddr)
            key = _key(builder, 0, 1, vaddr, False)
            for machine in adopters:
                assert machine.scheme.pom.probe(vaddr, key) is page.tlb_entry
