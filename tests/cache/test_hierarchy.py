"""Unit tests for the cache hierarchy / miss path."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.common.stats import StatRegistry


@pytest.fixture
def hierarchy():
    return CacheHierarchy(SystemConfig(num_cores=2), StatRegistry())


class TestDataPath:
    def test_cold_access_goes_to_dram(self, hierarchy):
        cfg = hierarchy.config
        cycles = hierarchy.data_access(0, 0x1000)
        min_sram = (cfg.l1d.latency_cycles + cfg.l2d.latency_cycles
                    + cfg.l3d.latency_cycles)
        assert cycles > min_sram  # DRAM latency added

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.data_access(0, 0x1000) == hierarchy.config.l1d.latency_cycles

    def test_miss_path_fills_all_levels(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.l1(0).contains(0x1000)
        assert hierarchy.l2(0).contains(0x1000)
        assert hierarchy.l3.contains(0x1000)

    def test_other_core_hits_shared_l3(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        cycles = hierarchy.data_access(1, 0x1000)
        assert cycles == hierarchy.config.l3d.latency_cycles

    def test_pte_access_uses_data_path(self, hierarchy):
        hierarchy.pte_access(0, 0x2000)
        assert hierarchy.l1(0).contains(0x2000)


class TestTlbLinePath:
    def test_probe_misses_cold(self, hierarchy):
        cycles, level = hierarchy.tlb_line_probe(0, 0x5000)
        assert level is None
        # Load-to-use semantics: the L3 lookup time covers the whole
        # on-chip search before heading to DRAM.
        assert cycles == hierarchy.config.l3d.latency_cycles

    def test_probe_does_not_touch_l1(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        hierarchy.tlb_line_probe(0, 0x5000)
        assert not hierarchy.l1(0).contains(0x5000)

    def test_fill_then_probe_hits_l2(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        cycles, level = hierarchy.tlb_line_probe(0, 0x5000)
        assert level == "l2"
        assert cycles == hierarchy.config.l2d.latency_cycles

    def test_other_core_hits_l3_and_promotes(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        cycles, level = hierarchy.tlb_line_probe(1, 0x5000)
        assert level == "l3"
        # Promotion: next probe by core 1 hits its private L2.
        _, level2 = hierarchy.tlb_line_probe(1, 0x5000)
        assert level2 == "l2"

    def test_tlb_line_cached_is_side_effect_free(self, hierarchy):
        assert not hierarchy.tlb_line_cached(0, 0x5000)
        hierarchy.tlb_line_fill(0, 0x5000)
        assert hierarchy.tlb_line_cached(0, 0x5000)
        stats = hierarchy.l2(0).stats
        assert stats["tlb_hits"] == 0  # contains() recorded nothing

    def test_invalidate_line_everywhere(self, hierarchy):
        hierarchy.data_access(0, 0x7000)
        hierarchy.tlb_line_fill(1, 0x7000)
        hierarchy.invalidate_line(0x7000)
        assert not hierarchy.l1(0).contains(0x7000)
        assert not hierarchy.l2(1).contains(0x7000)
        assert not hierarchy.l3.contains(0x7000)


    def test_rewritten_line_matches_invalidate_then_fill(self):
        """One call equals dropping the line everywhere, then refilling.

        Lines share one L2 and one L3 set, so the sets fill up and the
        refill's eviction path runs; recency order and counters must
        agree exactly.
        """
        config = SystemConfig(num_cores=3)
        merged_stats, split_stats = StatRegistry(), StatRegistry()
        merged = CacheHierarchy(config, merged_stats)
        split = CacheHierarchy(config, split_stats)
        stride = merged.l3._num_sets * 64
        lines = [0x40000000 + i * stride for i in range(24)]
        for step in range(600):
            # Each line is used by all three cores in turn, so the other
            # cores' L2s hold a copy when one core rewrites it.
            core = step % 3
            paddr = lines[(step // 3 * 7) % len(lines)]
            if step % 5 == 0:
                merged.tlb_line_rewritten(core, paddr)
                split.invalidate_tlb_line(paddr)
                split.tlb_line_fill(core, paddr)
            else:
                for hierarchy in (merged, split):
                    if hierarchy.tlb_line_probe(core, paddr)[1] is None:
                        hierarchy.tlb_line_fill(core, paddr)
        state = [[list(tags.items()) for tags in cache._tags]
                 for cache in merged.all_caches()]
        assert state == [[list(tags.items()) for tags in cache._tags]
                         for cache in split.all_caches()]
        assert merged_stats.as_nested_dict() == split_stats.as_nested_dict()
        assert merged_stats["l3d"]["tlb_evictions"], "sets must fill up"


class TestLatencyAccumulation:
    def test_l2_hit_latency(self, hierarchy):
        hierarchy.data_access(0, 0x9000)
        # Evict from L1 only, by filling its set; easier: probe from the
        # same core after invalidating L1.
        hierarchy.l1(0).invalidate(0x9000)
        assert (hierarchy.data_access(0, 0x9000)
                == hierarchy.config.l2d.latency_cycles)

    def test_dram_stats_count_accesses(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.main_dram.stats["accesses"] == 1
