"""Shared last-level SRAM TLB baseline (paper's "Shared_L2").

Implements the scheme of Bhattacharjee et al. [9] as the paper describes
it: the private per-core L2 TLBs are replaced by a **single shared SRAM
TLB** with the aggregate capacity.  An L1 TLB miss looks up the shared
structure; a shared-TLB miss starts a page walk.

Sharing is not free, which is central to the paper's comparison: the
default (banked, as in the reference proposal) charges an interconnect
hop on top of the private-L2 array latency; the monolithic variant
(``banked=False``) instead grows the array latency with the CACTI-like
model of :mod:`repro.tlb.latency`.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import SharedL2Config, TlbConfig
from ..common.stats import StatGroup
from . import latency as sram_latency
from .entry import TlbEntry
from .tlb import SramTlb


class SharedLastLevelTlb:
    """One SRAM TLB shared by every core."""

    def __init__(self, config: SharedL2Config, num_cores: int,
                 stats: StatGroup) -> None:
        self.config = config
        base = config.tlb_config(num_cores)
        if config.banked:
            # Per-core banks keep the array access at private-L2 cost;
            # only the interconnect hop is extra.
            access = config.array_latency_cycles
        else:
            array_bytes = sram_latency.tlb_array_bytes(base.entries)
            access = sram_latency.latency_cycles(array_bytes)
        self.tlb_config = TlbConfig(
            name=base.name, entries=base.entries, ways=base.ways,
            latency_cycles=access + config.interconnect_cycles)
        self._tlb = SramTlb(self.tlb_config, stats)
        self.stats = stats

    @property
    def latency(self) -> int:
        """Round-trip lookup latency in CPU cycles (array + interconnect)."""
        return self.tlb_config.latency_cycles

    @property
    def probe_index(self) -> int:
        """Set index of the most recent lookup (for ``insert_at``)."""
        return self._tlb.probe_index

    def lookup(self, key: int) -> Optional[TlbEntry]:
        return self._tlb.lookup(key)

    def insert(self, key: int, entry: TlbEntry) -> Optional[int]:
        return self._tlb.insert(key, entry)

    def insert_at(self, set_idx: int, key: int,
                  entry: TlbEntry) -> Optional[int]:
        return self._tlb.insert_at(set_idx, key, entry)

    def invalidate_page(self, key: int) -> bool:
        return self._tlb.invalidate_page(key)

    def invalidate_vm(self, vm_id: int) -> int:
        """Drop every entry of one VM; returns the count dropped."""
        return self._tlb.invalidate_vm(vm_id)

    def contains(self, key: int) -> bool:
        return self._tlb.contains(key)

    def keys(self):
        return self._tlb.keys()

    def flush(self) -> int:
        return self._tlb.flush()

    def __len__(self) -> int:
        return len(self._tlb)
