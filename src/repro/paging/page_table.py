"""x86-64-style 4-level radix page table.

One :class:`RadixPageTable` maps an input address space onto an output
address space — used twice in virtualized mode:

* the **guest** table maps gVA -> gPA, its table frames allocated from
  guest-physical memory, and
* the **host** table maps gPA -> hPA, its table frames allocated from
  host-physical memory.

Tables are modelled at entry granularity so the walkers can issue the
*exact* memory references of a hardware walk: every level touched yields
one PTE address (``table base + 8 * index``) that goes through the data
caches and DRAM.

Levels follow the paper's Figure 1 numbering: level 4 = PML4 (root),
3 = PDPT, 2 = PD, 1 = PT.  A 2 MiB mapping terminates at level 2.

This module is on the nested-walk hot path (a cold 2-D walk touches up
to 24 table entries), so the per-level index extraction is inlined and
the walk results are NamedTuples; behaviour is bit-identical to the
frozen reference copy in :mod:`repro.core._refimpl.page_table`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..common import addr
from ..common.errors import AddressError, TranslationFault

PTE_BYTES = 8

#: VA shift of the 9-bit index at each level (index 0 unused).
_LEVEL_SHIFT = tuple(
    None if level == 0
    else addr.SMALL_PAGE_SHIFT + addr.RADIX_LEVEL_BITS * (level - 1)
    for level in range(addr.RADIX_LEVELS + 1))
_INDEX_MASK = addr.ENTRIES_PER_TABLE - 1
_ROOT_LEVEL = addr.RADIX_LEVELS
_SHIFT_SMALL = addr.SMALL_PAGE_SHIFT
_SHIFT_LARGE = addr.LARGE_PAGE_SHIFT

#: signature of a frame allocator: returns the base address of a fresh
#: 4 KiB frame in the table's output address space.
FrameAllocator = Callable[[], int]


class LeafMapping(NamedTuple):
    """Result of a successful walk: the mapped frame and its size."""

    frame: int  # frame base address in the output address space
    large: bool

    def translate(self, vaddr: int) -> int:
        """Apply the mapping to a full input address."""
        return self.frame | addr.page_offset(vaddr, self.large)


class WalkStep(NamedTuple):
    """One memory reference of a table walk."""

    level: int       # 4 = PML4 .. 1 = PT
    pte_paddr: int   # address of the entry in the output address space


class _TableNode:
    """One 4 KiB table: 512 entries, each a child node or a leaf."""

    __slots__ = ("base", "children", "leaves")

    def __init__(self, base: int) -> None:
        self.base = base
        self.children: Dict[int, "_TableNode"] = {}
        self.leaves: Dict[int, LeafMapping] = {}

    def entry_paddr(self, index: int) -> int:
        return self.base + PTE_BYTES * index


class RadixPageTable:
    """A 4-level radix tree with explicit table frame addresses."""

    def __init__(self, frame_allocator: FrameAllocator, name: str = "pt") -> None:
        self.name = name
        self._alloc = frame_allocator
        self._root = _TableNode(self._alloc())
        self._mapped_small = 0
        self._mapped_large = 0
        # Memoized complete table_bases() descents.  Safe because table
        # nodes are never deleted or relocated (unmap_page removes only
        # leaves; map_page reuses existing nodes), so a complete
        # (level, base) list for a VA prefix can never change.
        self._bases_memo: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # Memoized successful walk_from() results, keyed by
        # (page-granular VA prefix, start_level, table_base).  Two tiers
        # so every offset inside a 2 MiB mapping shares one entry.  A
        # successful walk can only go stale when its leaf is replaced or
        # removed — map_page over an existing leaf and unmap_page clear
        # both memos; new mappings need no action (an address that now
        # resolves previously faulted, and faults are never memoized).
        # table_base lives in the key, so the stale-base AddressError
        # path still takes the uncached walk.  A table (and so its
        # memos) may be read by several machines that adopted one host
        # (repro.core.system.Machine); that is safe only because adopting
        # machines never remap (they reject destroy_vm and events).
        self._walk_memo_small: Dict[Tuple[int, int, int],
                                    Tuple[List[WalkStep], LeafMapping]] = {}
        self._walk_memo_large: Dict[Tuple[int, int, int],
                                    Tuple[List[WalkStep], LeafMapping]] = {}

    @property
    def root_base(self) -> int:
        """Address of the root (PML4) table frame — the CR3 analogue."""
        return self._root.base

    # -- construction --------------------------------------------------------

    def map_page(self, vaddr: int, frame: int, large: bool = False,
                 writable: bool = True) -> None:
        """Install a mapping for the page containing ``vaddr``.

        ``frame`` must be aligned to the page size.  Re-mapping an already
        mapped page replaces the leaf (the OS changing a mapping).
        """
        if frame & (addr.page_size(large) - 1):
            raise AddressError(
                f"frame {frame:#x} not aligned to {'2MiB' if large else '4KiB'}")
        leaf_level = 2 if large else 1
        node = self._root
        for level in range(_ROOT_LEVEL, leaf_level, -1):
            index = (vaddr >> _LEVEL_SHIFT[level]) & _INDEX_MASK
            if index in node.leaves:
                raise AddressError(
                    f"{self.name}: VA {vaddr:#x} already covered by a large page")
            child = node.children.get(index)
            if child is None:
                child = _TableNode(self._alloc())
                node.children[index] = child
            node = child
        index = (vaddr >> _LEVEL_SHIFT[leaf_level]) & _INDEX_MASK
        if large and index in node.children:
            raise AddressError(
                f"{self.name}: VA {vaddr:#x} already covered by small pages")
        if index not in node.leaves:
            if large:
                self._mapped_large += 1
            else:
                self._mapped_small += 1
        elif self._walk_memo_small or self._walk_memo_large:
            # Re-mapping replaces a leaf some memoized walk may end at.
            self._walk_memo_small.clear()
            self._walk_memo_large.clear()
        node.leaves[index] = LeafMapping(frame=frame, large=large)

    def unmap_page(self, vaddr: int, large: bool = False) -> bool:
        """Remove the leaf for the page containing ``vaddr``."""
        leaf_level = 2 if large else 1
        node = self._root
        for level in range(_ROOT_LEVEL, leaf_level, -1):
            node = node.children.get((vaddr >> _LEVEL_SHIFT[level]) & _INDEX_MASK)
            if node is None:
                return False
        index = (vaddr >> _LEVEL_SHIFT[leaf_level]) & _INDEX_MASK
        if index in node.leaves:
            del node.leaves[index]
            if large:
                self._mapped_large -= 1
            else:
                self._mapped_small -= 1
            self._walk_memo_small.clear()
            self._walk_memo_large.clear()
            return True
        return False

    # -- walking ------------------------------------------------------------

    def walk(self, vaddr: int) -> Tuple[List[WalkStep], LeafMapping]:
        """Full walk from the root; returns the steps and the leaf.

        Raises :class:`TranslationFault` when the address is unmapped.
        """
        return self.walk_from(vaddr, _ROOT_LEVEL, self._root.base)

    def walk_from(self, vaddr: int, start_level: int,
                  table_base: int) -> Tuple[List[WalkStep], LeafMapping]:
        """Walk starting at ``start_level`` (a PSC hit skips upper levels).

        ``table_base`` must be the base of the level-``start_level`` table
        covering ``vaddr`` — i.e. what the PSC cached.
        """
        cached = self._walk_memo_large.get(
            (vaddr >> _SHIFT_LARGE, start_level, table_base))
        if cached is None:
            cached = self._walk_memo_small.get(
                (vaddr >> _SHIFT_SMALL, start_level, table_base))
        if cached is not None:
            return cached
        name = self.name
        node = self._root
        for level in range(_ROOT_LEVEL, start_level, -1):
            node = node.children.get((vaddr >> _LEVEL_SHIFT[level]) & _INDEX_MASK)
            if node is None:
                raise TranslationFault(vaddr, space=name)
        if node.base != table_base:
            raise AddressError(
                f"{name}: stale table base {table_base:#x} at level {start_level}")
        steps: List[WalkStep] = []
        append = steps.append
        level = start_level
        while True:
            index = (vaddr >> _LEVEL_SHIFT[level]) & _INDEX_MASK
            append(WalkStep(level, node.base + PTE_BYTES * index))
            leaf = node.leaves.get(index)
            if leaf is not None:
                if level != (2 if leaf.large else 1):
                    raise AddressError(
                        f"{name}: leaf at wrong level {level}")
                result = (steps, leaf)
                if leaf.large:
                    self._walk_memo_large[
                        (vaddr >> _SHIFT_LARGE, start_level, table_base)] = result
                else:
                    self._walk_memo_small[
                        (vaddr >> _SHIFT_SMALL, start_level, table_base)] = result
                return result
            node = node.children.get(index)
            if node is None:
                raise TranslationFault(vaddr, space=name)
            level -= 1

    def table_base(self, vaddr: int, level: int) -> Optional[int]:
        """Base address of the level-``level`` table covering ``vaddr``.

        Used when refilling a paging-structure cache after a walk.  The
        returned table is the one whose entries are indexed at ``level``;
        ``None`` when the covering table does not exist (or ``level`` is
        the root, which needs no cache).
        """
        node = self._root
        for lvl in range(_ROOT_LEVEL, level, -1):
            node = node.children.get((vaddr >> _LEVEL_SHIFT[lvl]) & _INDEX_MASK)
            if node is None:
                return None
        return node.base

    def table_bases(self, vaddr: int, min_level: int) -> List[Tuple[int, int]]:
        """``(level, base)`` of every covering table, level 3 down to
        ``min_level``, in one descent.

        Equivalent to calling :meth:`table_base` once per level (levels
        whose covering table does not exist are skipped), but walks the
        tree once instead of once per level — the PSC-refill loops of
        the walkers call this after every page walk.  Results are in
        ascending level order.
        """
        memo_key = (vaddr >> _LEVEL_SHIFT[min_level + 1], min_level)
        bases = self._bases_memo.get(memo_key)
        if bases is not None:
            return bases
        bases = []
        node = self._root
        for lvl in range(_ROOT_LEVEL, min_level, -1):
            node = node.children.get((vaddr >> _LEVEL_SHIFT[lvl]) & _INDEX_MASK)
            if node is None:
                break
            bases.append((lvl - 1, node.base))
        bases.reverse()
        if len(bases) == _ROOT_LEVEL - min_level:
            # Complete down to min_level: every node on the path exists
            # and node bases are immutable, so this can be cached.
            # Partial results could grow as tables are created; those
            # are recomputed (they only occur off the post-walk path).
            self._bases_memo[memo_key] = bases
        return bases

    # -- functional lookup (no timing) ----------------------------------------

    def lookup(self, vaddr: int) -> Optional[LeafMapping]:
        """Translate without recording steps; ``None`` when unmapped."""
        node = self._root
        for level in range(_ROOT_LEVEL, 0, -1):
            index = (vaddr >> _LEVEL_SHIFT[level]) & _INDEX_MASK
            leaf = node.leaves.get(index)
            if leaf is not None:
                return leaf
            node = node.children.get(index)
            if node is None:
                return None
        return None

    # -- introspection -----------------------------------------------------

    @property
    def mapped_pages(self) -> Tuple[int, int]:
        """(small, large) leaf counts."""
        return self._mapped_small, self._mapped_large

    def table_count(self) -> int:
        """Number of table frames allocated (root included)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def table_frames(self) -> List[int]:
        """Base addresses of every table frame (root included).

        Table nodes are never deleted or relocated, so this is exactly
        the set of frames the allocator handed out — what a teardown
        must return to the allocator's free list.
        """
        frames: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            frames.append(node.base)
            stack.extend(node.children.values())
        return frames
