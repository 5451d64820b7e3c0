"""Per-page reference MMU and page-table writer.

:class:`GpuMmu` translates a range one leaf table at a time and
:class:`MmuTables` writes a leaf table's PTEs as one slice.  The classes
here do the same work one 4 KiB page at a time, the way the model did
before ranges: a TLB lookup or a fresh three-level walk per page, one
``read_u64``/``write_u64`` per PTE.  The range implementations must match
them exactly — return values, faults and fault latches, TLB contents,
write-watched table pages, memory bytes and dirty pages — which the
differential property tests check and ``repro perf``'s ``mmu`` section
times against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.driver.mmu_driver import MmuMapError, MmuTables
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, pages_spanning
from repro.hw.mmu import (
    ENTRY_ATE,
    ENTRY_INVALID,
    ENTRY_SIZE,
    ENTRY_TABLE,
    ENTRY_TYPE_MASK,
    LEVELS,
    VA_BITS,
    GpuMmu,
    GpuPageFault,
    PteFlags,
    ate_flags,
    entry_address,
    level_index,
    make_ate,
)

_ACCESS_BITS = {"r": PteFlags.READ, "w": PteFlags.WRITE, "x": PteFlags.EXECUTE}


class ReferenceMmu(GpuMmu):
    """:class:`GpuMmu` with page-at-a-time translation.

    Shares the TLB layout (``va_page -> ATE``), the range cache, the
    fault latch and the AS-command surface with the real MMU; only the
    translation paths differ.
    """

    def walk(self, va: int, trace: List[int]) -> Optional[int]:
        """The ATE mapping ``va``, or None; every table read is traced."""
        if va >> VA_BITS:
            return None
        table_pa = self.transtab
        for level in range(LEVELS):
            trace.append(table_pa >> PAGE_SHIFT)
            entry = self.mem.read_u64(table_pa + level_index(va, level) * ENTRY_SIZE)
            kind = entry & ENTRY_TYPE_MASK
            if level < LEVELS - 1:
                if kind != ENTRY_TABLE:
                    return None
                table_pa = entry_address(entry)
            elif kind == ENTRY_ATE:
                return entry
        return None

    def translate(self, va: int, access: str = "r") -> int:
        if not self.enabled:
            raise GpuPageFault(va, access, "MMU disabled")
        va_page = va >> PAGE_SHIFT
        entry = self._tlb.get(va_page)
        if entry is None:
            trace: List[int] = []
            entry = self.walk(va, trace)
            self.mem.watch_pages(trace)
            if entry is None:
                self._fault(va, access, "unmapped address")
            self._tlb[va_page] = entry
        flags = ate_flags(entry, self.pte_format)
        if not flags & _ACCESS_BITS[access]:
            self._fault(va, access, f"permission denied (flags={flags:#x})")
        return entry_address(entry) | (va & (PAGE_SIZE - 1))

    def translate_contiguous(self, va: int, nbytes: int, access: str = "r") -> int:
        if nbytes <= 0:
            raise ValueError("range must be non-empty")
        if not self.enabled:
            raise GpuPageFault(va, access, "MMU disabled")
        epoch = self.mem.watch_epoch
        key = (self.transtab, va, nbytes, access)
        hit = self._range_cache.get(key)
        if hit is not None and hit[1] == epoch:
            return hit[0]
        base_pa = self.translate(va, access)
        offset = PAGE_SIZE - (va & (PAGE_SIZE - 1))
        while offset < nbytes:
            next_pa = self.translate(va + offset, access)
            if next_pa != base_pa + offset:
                raise GpuPageFault(va + offset, access,
                                   "range is not physically contiguous")
            offset += PAGE_SIZE
        self._range_cache[key] = (base_pa, epoch)
        return base_pa


class ReferenceTables(MmuTables):
    """:class:`MmuTables` writing one PTE at a time."""

    def insert_pages(self, va: int, pa: int, nbytes: int, flags: int) -> int:
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise MmuMapError(f"unaligned mapping va={va:#x} pa={pa:#x}")
        if nbytes <= 0:
            raise MmuMapError("empty mapping")
        npages = len(pages_spanning(va, nbytes))
        for i in range(npages):
            self._map_one(va + i * PAGE_SIZE, pa + i * PAGE_SIZE, flags)
        self.mapped_bytes += npages * PAGE_SIZE
        return npages

    def unmap_pages(self, va: int, nbytes: int) -> int:
        npages = len(pages_spanning(va, nbytes))
        removed = 0
        for i in range(npages):
            if self._unmap_one(va + i * PAGE_SIZE):
                removed += 1
        self.mapped_bytes -= removed * PAGE_SIZE
        return removed

    def _map_one(self, va: int, pa: int, flags: int) -> None:
        leaf = self._walk_to_leaf(va, allocate=True)
        entry_pa = leaf + level_index(va, LEVELS - 1) * ENTRY_SIZE
        if self.mem.read_u64(entry_pa) & ENTRY_TYPE_MASK != ENTRY_INVALID:
            raise MmuMapError(f"va {va:#x} is already mapped")
        self.mem.write_u64(entry_pa, make_ate(pa, flags, self.pte_format))

    def _unmap_one(self, va: int) -> bool:
        leaf = self._walk_to_leaf(va, allocate=False)
        if leaf == 0:
            return False
        entry_pa = leaf + level_index(va, LEVELS - 1) * ENTRY_SIZE
        if self.mem.read_u64(entry_pa) & ENTRY_TYPE_MASK == ENTRY_INVALID:
            return False
        self.mem.write_u64(entry_pa, 0)
        return True
