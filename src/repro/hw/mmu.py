"""GPU MMU: page tables, address translation, and the GPU TLB.

The GPU accesses shared memory through its own page tables (§2.1), which
the driver builds in shared memory and points the hardware at via the
``AS_TRANSTAB`` registers.  Page table *snapshots therefore travel inside
memory dumps* — one of the reasons recording captures everything needed for
replay (§2.3), and the permission bits are how meta-only synchronization
identifies metastate (§5: Mali maps shader code executable).

The layout is a 3-level table over a 39-bit VA (512-entry levels, 4 KiB
pages, 8-byte entries).  Two PTE formats exist — ``pte_format=1``
(Bifrost-like) and ``pte_format=0`` (Midgard-like) differ in where the
permission bits live, reproducing the paper's observation that page-table
format variations between SKUs break replay (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

VA_BITS = 39
LEVEL_BITS = 9
LEVELS = 3
ENTRIES_PER_TABLE = 1 << LEVEL_BITS
ENTRY_SIZE = 8

ADDR_MASK = ((1 << 48) - 1) & ~(PAGE_SIZE - 1)

ENTRY_TYPE_MASK = 0x3
ENTRY_INVALID = 0x0
ENTRY_ATE = 0x1  # address translation entry (a mapped page)
ENTRY_TABLE = 0x3  # pointer to next-level table

#: A leaf table's entries as one little-endian numpy slice.
PTE_DTYPE = np.dtype("<u8")
# Address-bit distance from a leaf run's first page to each later page.
_PAGE_STEPS = np.arange(ENTRIES_PER_TABLE, dtype=PTE_DTYPE) << PAGE_SHIFT


class PteFlags:
    """Permission bits, at format-dependent positions."""

    READ = 0x1
    WRITE = 0x2
    EXECUTE = 0x4
    SHARED = 0x8

    # Bit positions of the flag nibble per pte_format.
    FORMAT_SHIFT = {0: 6, 1: 2}


_ACCESS_BITS = {"r": PteFlags.READ, "w": PteFlags.WRITE, "x": PteFlags.EXECUTE}


class GpuPageFault(Exception):
    """Raised (and latched into AS_FAULTSTATUS) on a bad GPU access."""

    def __init__(self, va: int, access: str, reason: str) -> None:
        super().__init__(f"GPU page fault at va={va:#x} ({access}): {reason}")
        self.va = va
        self.access = access
        self.reason = reason


def level_index(va: int, level: int) -> int:
    """Index into the ``level``-th table (0 = root) for ``va``."""
    shift = PAGE_SHIFT + LEVEL_BITS * (LEVELS - 1 - level)
    return (va >> shift) & (ENTRIES_PER_TABLE - 1)


def make_table_entry(next_pa: int) -> int:
    return (next_pa & ADDR_MASK) | ENTRY_TABLE


def make_ate(pa: int, flags: int, pte_format: int) -> int:
    shift = PteFlags.FORMAT_SHIFT[pte_format]
    return (pa & ADDR_MASK) | (flags << shift) | ENTRY_ATE


def ate_flags(entry: int, pte_format: int) -> int:
    shift = PteFlags.FORMAT_SHIFT[pte_format]
    return (entry >> shift) & 0xF


def entry_address(entry: int) -> int:
    return entry & ADDR_MASK


@dataclass
class WalkResult:
    pa: int
    flags: int
    entry: int


def leaf_runs(first_page: int, npages: int) -> Iterator[Tuple[int, int]]:
    """Split VA pages ``[first_page, first_page + npages)`` at leaf-table
    boundaries into ``(page, count)`` runs: every page of a run is mapped
    by one leaf table, under one upper-level walk."""
    end = first_page + npages
    page = first_page
    while page < end:
        stop = min(end, (page | (ENTRIES_PER_TABLE - 1)) + 1)
        yield page, stop - page
        page = stop


class PageTableWalker:
    """Software walker over in-memory page tables (shared by GPU and tools)."""

    def __init__(self, mem: PhysicalMemory, pte_format: int) -> None:
        self.mem = mem
        self.pte_format = pte_format

    def leaf_table(self, root_pa: int, va: int) -> Tuple[Optional[int], List[int]]:
        """Walk the upper levels for ``va``: the PA of the leaf table that
        maps it (``None`` when the walk stops early) and the page frame of
        every table read on the way."""
        trace: List[int] = []
        if va >> VA_BITS:
            return None, trace
        table_pa = root_pa
        for level in range(LEVELS - 1):
            trace.append(table_pa >> PAGE_SHIFT)
            entry = self.mem.read_u64(table_pa + level_index(va, level) * ENTRY_SIZE)
            if entry & ENTRY_TYPE_MASK != ENTRY_TABLE:
                return None, trace
            table_pa = entry_address(entry)
        trace.append(table_pa >> PAGE_SHIFT)
        return table_pa, trace

    def walk(self, root_pa: int, va: int) -> Optional[WalkResult]:
        """Translate ``va`` under ``root_pa``."""
        leaf, _ = self.leaf_table(root_pa, va)
        if leaf is None:
            return None
        entry = self.mem.read_u64(leaf + level_index(va, LEVELS - 1) * ENTRY_SIZE)
        if entry & ENTRY_TYPE_MASK != ENTRY_ATE:
            return None
        pa = entry_address(entry) | (va & (PAGE_SIZE - 1))
        return WalkResult(pa=pa, flags=ate_flags(entry, self.pte_format),
                          entry=entry)

    def table_pages(self, root_pa: int) -> List[int]:
        """Page frame numbers of every live page-table page under a root.

        Used by meta-only synchronization: page tables are metastate and
        must always travel with memory dumps (§5).
        """
        pfns = [root_pa >> PAGE_SHIFT]
        frontier = [(root_pa, 0)]
        while frontier:
            table_pa, level = frontier.pop()
            if level >= LEVELS - 1:
                continue
            for idx in range(ENTRIES_PER_TABLE):
                entry = self.mem.read_u64(table_pa + idx * ENTRY_SIZE)
                if entry & ENTRY_TYPE_MASK == ENTRY_TABLE:
                    child = entry_address(entry)
                    pfns.append(child >> PAGE_SHIFT)
                    frontier.append((child, level + 1))
        return pfns

    def mapped_pages(self, root_pa: int) -> List[Tuple[int, int, int]]:
        """Every (va_page, pa_page, flags) mapping under a root, sorted."""
        out: List[Tuple[int, int, int]] = []
        self._collect(root_pa, 0, 0, out)
        out.sort()
        return out

    def _collect(self, table_pa: int, level: int, va_prefix: int,
                 out: List[Tuple[int, int, int]]) -> None:
        span = LEVEL_BITS * (LEVELS - 1 - level) + PAGE_SHIFT
        for idx in range(ENTRIES_PER_TABLE):
            entry = self.mem.read_u64(table_pa + idx * ENTRY_SIZE)
            kind = entry & ENTRY_TYPE_MASK
            if kind == ENTRY_INVALID:
                continue
            va = va_prefix | (idx << span)
            if level < LEVELS - 1 and kind == ENTRY_TABLE:
                self._collect(entry_address(entry), level + 1, va, out)
            elif level == LEVELS - 1 and kind == ENTRY_ATE:
                out.append((va, entry_address(entry),
                            ate_flags(entry, self.pte_format)))


class GpuMmu:
    """The GPU-side MMU with a TLB, driven by the AS registers.

    The TLB makes the driver's UPDATE/FLUSH protocol observable: mapping
    changes are invisible to the GPU until the driver issues an AS command,
    just like real hardware.

    Translation works on ranges: one upper-level walk per leaf table, then
    the leaf table's slice is checked as one array.  The result, the
    faults and the TLB contents are exactly those of translating the
    range one page at a time in VA order.
    """

    def __init__(self, mem: PhysicalMemory, pte_format: int) -> None:
        self.mem = mem
        self.pte_format = pte_format
        self.walker = PageTableWalker(mem, pte_format)
        self.transtab: int = 0
        self.enabled: bool = False
        # va_page -> the ATE a walk read for it; survives table changes
        # until the next flush.
        self._tlb: Dict[int, int] = {}
        self.fault_status: int = 0
        self.fault_address: int = 0
        self.tlb_flushes: int = 0
        self._flag_shift = PteFlags.FORMAT_SHIFT[pte_format]
        # Range-translation cache for translate_contiguous: maps
        # (root, va, nbytes, access) -> (base_pa, epoch).  Valid only
        # while watch_epoch is unchanged, i.e. while no traversed page
        # table has been written — under that condition per-page
        # translation (TLB or fresh walks, both reading the same
        # unchanged tables) cannot disagree with the cached result, so
        # the shortcut is semantically invisible.
        self._range_cache: Dict[Tuple[int, int, int, str], Tuple[int, int]] = {}

    def configure(self, transtab: int, enabled: bool = True) -> None:
        self.transtab = transtab & ADDR_MASK
        self.enabled = enabled
        self.flush_tlb()

    def flush_tlb(self) -> None:
        self._tlb.clear()
        self.tlb_flushes += 1

    def translate(self, va: int, access: str = "r") -> int:
        """Translate a GPU VA, enforcing permissions. ``access`` in r/w/x."""
        if not self.enabled:
            raise GpuPageFault(va, access, "MMU disabled")
        return self._translate_range(va, 1, access)

    def translate_contiguous(self, va: int, nbytes: int, access: str = "r") -> int:
        """Translate a range that must be physically contiguous.

        GPU buffers in this model are allocated contiguously (CMA-style), so
        the shader executor can take single numpy views.  A non-contiguous
        mapping is a programming error surfaced loudly.
        """
        if nbytes <= 0:
            raise ValueError("range must be non-empty")
        if not self.enabled:
            raise GpuPageFault(va, access, "MMU disabled")
        epoch = self.mem.watch_epoch
        key = (self.transtab, va, nbytes, access)
        hit = self._range_cache.get(key)
        if hit is not None and hit[1] == epoch:
            return hit[0]
        base_pa = self._translate_range(va, nbytes, access)
        self._range_cache[key] = (base_pa, epoch)
        return base_pa

    def _translate_range(self, va: int, nbytes: int, access: str) -> int:
        """Translate every page of ``[va, va + nbytes)`` in VA order and
        require physical contiguity, stopping at the first failing page.

        Pages in the TLB use their (possibly stale) cached entry; the rest
        come from one walk per leaf table, and exactly the pages a
        per-page loop would have reached are filled into the TLB.  A
        leading run of TLB hits is checked without a walk, as per-page
        translation would.
        """
        tlb = self._tlb
        needed = _ACCESS_BITS[access] << self._flag_shift
        ok_mask = ENTRY_TYPE_MASK | needed
        ok_bits = ENTRY_ATE | needed
        first = va >> PAGE_SHIFT
        end = ((va + nbytes - 1) >> PAGE_SHIFT) + 1
        base = 0   # address bits of the first page's entry
        page = first
        while page < end:
            stop = min(end, (page | (ENTRIES_PER_TABLE - 1)) + 1)
            hits = tlb.keys() & range(page, stop) if tlb else ()
            if page in hits:
                run = page + 1
                while run < stop and run in hits:
                    run += 1
                stop = run
                ptes = np.fromiter(map(tlb.__getitem__, range(page, stop)),
                                   PTE_DTYPE, stop - page)
            else:
                leaf, trace = self.walker.leaf_table(self.transtab,
                                                     page << PAGE_SHIFT)
                if leaf is None:
                    ptes = np.zeros(stop - page, PTE_DTYPE)
                else:
                    ptes = self.mem.view(
                        leaf + (page & (ENTRIES_PER_TABLE - 1)) * ENTRY_SIZE,
                        (stop - page,), PTE_DTYPE)
                    if hits:
                        ptes = ptes.copy()
                self.mem.watch_pages(trace)
                for hit in hits:
                    ptes[hit - page] = tlb[hit]
            n = stop - page
            head = int(ptes[0])
            if page == first:
                base = head & ADDR_MASK
            expect = base + ((page - first) << PAGE_SHIFT)
            # The common run: every entry is the first plus its page step,
            # with no carry out of the address field — the same kind and
            # flags throughout, and physically contiguous.
            if (head & ok_mask == ok_bits and head & ADDR_MASK == expect
                    and expect + ((n - 1) << PAGE_SHIFT) <= ADDR_MASK
                    and (n == 1
                         or (ptes[1:] - _PAGE_STEPS[1:n] == head).all())):
                bad = n
            else:
                good = ((ptes & ok_mask) == ok_bits) & (
                    (ptes & ADDR_MASK) - _PAGE_STEPS[:n] == expect)
                bad = n if good.all() else int(good.argmin())
            if bad < n:
                entry = int(ptes[bad])
                filled = bad + 1 if entry & ENTRY_TYPE_MASK == ENTRY_ATE else bad
                tlb.update(zip(range(page, page + filled),
                               ptes[:filled].tolist()))
                self._range_fault(va if page + bad == first
                                  else (page + bad) << PAGE_SHIFT,
                                  access, entry)
            tlb.update(zip(range(page, stop), ptes.tolist()))
            page = stop
        return base | (va & (PAGE_SIZE - 1))

    def _range_fault(self, va: int, access: str, entry: int) -> None:
        """Raise the fault per-page translation raises at ``va``, whose
        (TLB or walked) entry is ``entry``."""
        if entry & ENTRY_TYPE_MASK != ENTRY_ATE:
            self._fault(va, access, "unmapped address")
        flags = ate_flags(entry, self.pte_format)
        if not flags & _ACCESS_BITS[access]:
            self._fault(va, access, f"permission denied (flags={flags:#x})")
        raise GpuPageFault(va, access, "range is not physically contiguous")

    def _fault(self, va: int, access: str, reason: str) -> None:
        self.fault_status = 0xC1 if access == "w" else 0xC0
        self.fault_address = va
        raise GpuPageFault(va, access, reason)
