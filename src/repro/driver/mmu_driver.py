"""Driver-side GPU page table management.

The driver builds page tables *in shared memory* and points the GPU's
AS registers at the root.  This matters to GR-T twice over: page-table
snapshots ride inside memory dumps (completeness, §2.3), and page-table
pages are metastate that meta-only synchronization must always ship (§5).

The PTE format is chosen from the probed GPU family (Midgard vs Bifrost
layouts differ), one of the SKU variations that breaks cross-SKU replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

import numpy as np

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory, pages_spanning
from repro.hw.mmu import (
    ADDR_MASK,
    ENTRIES_PER_TABLE,
    ENTRY_INVALID,
    ENTRY_SIZE,
    ENTRY_TABLE,
    ENTRY_TYPE_MASK,
    LEVELS,
    PTE_DTYPE,
    entry_address,
    leaf_runs,
    level_index,
    make_ate,
    make_table_entry,
)


class MmuMapError(RuntimeError):
    """Attempt to construct an invalid mapping."""


@dataclass
class MmuTables:
    """A page table hierarchy owned by the driver.

    Table pages are allocated from physical memory on demand.  All table
    page frames are tracked so memory synchronization can treat them as
    metastate, and so tests can verify snapshot completeness.
    """

    mem: PhysicalMemory
    pte_format: int
    root_pa: int = 0
    table_pfns: Set[int] = field(default_factory=set)
    mapped_bytes: int = 0

    def __post_init__(self) -> None:
        if self.root_pa == 0:
            self.root_pa = self._alloc_table_page()

    def _alloc_table_page(self) -> int:
        region = self.mem.alloc(PAGE_SIZE, label="gpu-pgtable")
        self.mem.fill(region.base, PAGE_SIZE, 0)
        self.table_pfns.add(region.base >> PAGE_SHIFT)
        return region.base

    # ------------------------------------------------------------------
    def insert_pages(self, va: int, pa: int, nbytes: int, flags: int) -> int:
        """Map [va, va+nbytes) -> [pa, pa+nbytes). Returns pages mapped.

        Each leaf table's run of PTEs is checked and written as one slice.
        An already-mapped page raises :class:`MmuMapError` with every page
        before it mapped, as mapping page by page would leave it.
        """
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise MmuMapError(f"unaligned mapping va={va:#x} pa={pa:#x}")
        if nbytes <= 0:
            raise MmuMapError("empty mapping")
        npages = len(pages_spanning(va, nbytes))
        ate = make_ate(0, flags, self.pte_format)
        done = 0
        for page, n in leaf_runs(va >> PAGE_SHIFT, npages):
            entry_pa = self._leaf_entry(page, allocate=True)
            taken = np.flatnonzero(
                self.mem.view(entry_pa, (n,), PTE_DTYPE) & ENTRY_TYPE_MASK)
            free = int(taken[0]) if taken.size else n
            if free:
                steps = np.arange(done, done + free, dtype=PTE_DTYPE)
                self.mem.write_array(
                    entry_pa, (((steps << PAGE_SHIFT) + pa) & ADDR_MASK) | ate)
            if free < n:
                raise MmuMapError(
                    f"va {(page + free) << PAGE_SHIFT:#x} is already mapped")
            done += n
        self.mapped_bytes += npages * PAGE_SIZE
        return npages

    def unmap_pages(self, va: int, nbytes: int) -> int:
        """Invalidate leaf entries for [va, va+nbytes)."""
        npages = len(pages_spanning(va, nbytes))
        removed = 0
        for page, n in leaf_runs(va >> PAGE_SHIFT, npages):
            entry_pa = self._leaf_entry(page, allocate=False)
            if entry_pa == 0:
                continue
            entries = self.mem.view(entry_pa, (n,), PTE_DTYPE).copy()
            live = (entries & ENTRY_TYPE_MASK) != ENTRY_INVALID
            count = int(np.count_nonzero(live))
            if count:
                entries[live] = 0
                self.mem.write_array(entry_pa, entries)
                removed += count
        self.mapped_bytes -= removed * PAGE_SIZE
        return removed

    # ------------------------------------------------------------------
    def _walk_to_leaf(self, va: int, allocate: bool) -> int:
        table_pa = self.root_pa
        for level in range(LEVELS - 1):
            entry_pa = table_pa + level_index(va, level) * ENTRY_SIZE
            entry = self.mem.read_u64(entry_pa)
            if entry & ENTRY_TYPE_MASK != ENTRY_TABLE:
                if not allocate:
                    return 0
                child = self._alloc_table_page()
                self.mem.write_u64(entry_pa, make_table_entry(child))
                entry = make_table_entry(child)
            table_pa = entry_address(entry)
        return table_pa

    def _leaf_entry(self, page: int, allocate: bool) -> int:
        """PA of the leaf entry for VA page ``page`` (0: no leaf table)."""
        leaf = self._walk_to_leaf(page << PAGE_SHIFT, allocate)
        if leaf == 0:
            return 0
        return leaf + (page & (ENTRIES_PER_TABLE - 1)) * ENTRY_SIZE

    # ------------------------------------------------------------------
    def metastate_pfns(self) -> Set[int]:
        """Table page frames — always part of a metastate dump (§5)."""
        return set(self.table_pfns)
