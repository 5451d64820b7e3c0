"""Property tests: page table construction and translation invariants."""

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from repro.driver.mmu_driver import MmuMapError, MmuTables
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.mmu import GpuMmu, GpuPageFault, PageTableWalker, PteFlags
from tests.mmu_reference import ReferenceMmu, ReferenceTables

RW = PteFlags.READ | PteFlags.WRITE

va_pages = st.integers(min_value=1, max_value=(1 << 27) - 1)  # VA page idx
flags = st.sampled_from([
    PteFlags.READ,
    PteFlags.READ | PteFlags.WRITE,
    PteFlags.READ | PteFlags.EXECUTE,
    PteFlags.READ | PteFlags.WRITE | PteFlags.EXECUTE,
])


@st.composite
def mapping_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pages = draw(st.lists(va_pages, min_size=n, max_size=n, unique=True))
    fl = [draw(flags) for _ in range(n)]
    return list(zip(pages, fl))


class TestMappingInvariants:
    @given(mapping_sets(), st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_every_mapping_translates_back(self, mappings, pte_format):
        mem = PhysicalMemory(size=8 << 20)
        tables = MmuTables(mem, pte_format=pte_format)
        mmu = GpuMmu(mem, pte_format=pte_format)
        mmu.configure(tables.root_pa)
        backing = {}
        for va_page, fl in mappings:
            region = mem.alloc(PAGE_SIZE, "m")
            tables.insert_pages(va_page << 12, region.base, PAGE_SIZE, fl)
            backing[va_page] = (region.base, fl)
        mmu.flush_tlb()
        for va_page, (pa, fl) in backing.items():
            if fl & PteFlags.READ:
                assert mmu.translate(va_page << 12, "r") == pa
            if fl & PteFlags.WRITE:
                assert mmu.translate((va_page << 12) + 123, "w") == pa + 123
            if not fl & PteFlags.EXECUTE:
                with pytest.raises(GpuPageFault):
                    mmu.translate(va_page << 12, "x")

    @given(mapping_sets())
    @settings(max_examples=40, deadline=None)
    def test_walker_inventory_is_complete(self, mappings):
        mem = PhysicalMemory(size=8 << 20)
        tables = MmuTables(mem, pte_format=1)
        expected = set()
        for va_page, fl in mappings:
            region = mem.alloc(PAGE_SIZE, "m")
            tables.insert_pages(va_page << 12, region.base, PAGE_SIZE, fl)
            expected.add((va_page << 12, region.base, fl))
        walker = PageTableWalker(mem, 1)
        assert set(walker.mapped_pages(tables.root_pa)) == expected

    @given(mapping_sets())
    @settings(max_examples=40, deadline=None)
    def test_unmap_restores_fault(self, mappings):
        mem = PhysicalMemory(size=8 << 20)
        tables = MmuTables(mem, pte_format=1)
        mmu = GpuMmu(mem, pte_format=1)
        mmu.configure(tables.root_pa)
        for va_page, fl in mappings:
            region = mem.alloc(PAGE_SIZE, "m")
            tables.insert_pages(va_page << 12, region.base, PAGE_SIZE,
                                fl | PteFlags.READ)
        # Unmap the first half; they must fault, the rest must not.
        half = len(mappings) // 2
        for va_page, _ in mappings[:half]:
            assert tables.unmap_pages(va_page << 12, PAGE_SIZE) == 1
        mmu.flush_tlb()
        for va_page, _ in mappings[:half]:
            with pytest.raises(GpuPageFault):
                mmu.translate(va_page << 12, "r")
        for va_page, _ in mappings[half:]:
            mmu.translate(va_page << 12, "r")

    @given(mapping_sets())
    @settings(max_examples=30, deadline=None)
    def test_table_pages_tracked_exactly(self, mappings):
        """Metastate accounting: the walker and the builder agree on the
        set of page-table pages (what meta-only sync must ship, §5)."""
        mem = PhysicalMemory(size=8 << 20)
        tables = MmuTables(mem, pte_format=1)
        for va_page, fl in mappings:
            region = mem.alloc(PAGE_SIZE, "m")
            tables.insert_pages(va_page << 12, region.base, PAGE_SIZE, fl)
        walker = PageTableWalker(mem, 1)
        assert set(walker.table_pages(tables.root_pa)) == \
            tables.metastate_pfns()


# ----------------------------------------------------------------------
# Differential: range-granular MMU and PTE writer vs the per-page
# reference (tests/mmu_reference.py).
# ----------------------------------------------------------------------
LEAF = 512                  # VA pages per leaf table
L1_SPAN = LEAF * LEAF       # VA pages per L1 table
VA_LIMIT = 1 << 27          # first VA page at or beyond 39 bits
MEM_PAGES = 2048

# VA pages next to the boundaries a range walk splits or stops at.
boundary_pages = st.builds(
    lambda base, delta: max(0, base + delta),
    st.sampled_from([16, LEAF, 7 * LEAF, L1_SPAN, 3 * L1_SPAN + LEAF,
                     VA_LIMIT, VA_LIMIT + L1_SPAN]),
    st.integers(-6, 6))
all_flags = st.sampled_from([
    0, PteFlags.READ, PteFlags.WRITE, PteFlags.EXECUTE, RW,
    PteFlags.READ | PteFlags.EXECUTE,
    PteFlags.READ | PteFlags.WRITE | PteFlags.EXECUTE,
    PteFlags.READ | PteFlags.SHARED,
])
span_pages = st.one_of(st.integers(1, 4), st.integers(LEAF - 8, LEAF + 90))

map_op = st.tuples(st.just("map"), boundary_pages,
                   st.integers(0, MEM_PAGES - 1), span_pages, all_flags)
unmap_op = st.tuples(st.just("unmap"), boundary_pages, span_pages)
xlate_op = st.tuples(st.sampled_from(["translate", "contiguous"]),
                     boundary_pages, st.integers(0, PAGE_SIZE - 1),
                     span_pages, st.sampled_from(["r", "w", "x"]))
flush_op = st.tuples(st.just("flush"))
mmu_ops = st.lists(st.one_of(map_op, map_op, unmap_op, xlate_op, xlate_op,
                             xlate_op, flush_op), min_size=1, max_size=24)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except GpuPageFault as exc:
        return ("fault", exc.va, exc.access, exc.reason)
    except MmuMapError as exc:
        return ("map-error", str(exc))


class _World:
    """One side of a differential run: memory, tables and MMU."""

    def __init__(self, tables_cls, mmu_cls, pte_format: int) -> None:
        self.mem = PhysicalMemory(size=MEM_PAGES * PAGE_SIZE)
        self.tables = tables_cls(self.mem, pte_format=pte_format)
        self.mmu = mmu_cls(self.mem, pte_format=pte_format)
        self.mmu.configure(self.tables.root_pa)

    def apply(self, op):
        kind = op[0]
        if kind == "map":
            _, va_page, pa_page, npages, fl = op
            pa = self.mem.base + (pa_page << 12)
            nbytes = min(npages, MEM_PAGES - pa_page) * PAGE_SIZE
            return _outcome(self.tables.insert_pages, va_page << 12, pa,
                            nbytes, fl)
        if kind == "unmap":
            _, va_page, npages = op
            return _outcome(self.tables.unmap_pages, va_page << 12,
                            npages * PAGE_SIZE)
        if kind == "flush":
            self.mmu.flush_tlb()
            return ("ok", None)
        _, va_page, offset, npages, access = op
        va = (va_page << 12) + offset
        if kind == "translate":
            return _outcome(self.mmu.translate, va, access)
        return _outcome(self.mmu.translate_contiguous, va,
                        npages * PAGE_SIZE - offset, access)

    def state(self):
        mmu, mem, tables = self.mmu, self.mem, self.tables
        return {
            "tlb": dict(mmu._tlb),
            "fault": (mmu.fault_status, mmu.fault_address),
            "watched": set(mem._watch),
            "range_cache": {key: (pa, epoch == mem.watch_epoch)
                            for key, (pa, epoch) in mmu._range_cache.items()},
            "dirty": mem.take_dirty(),     # pages written by this op
            "table_pfns": set(tables.table_pfns),
            "mapped_bytes": tables.mapped_bytes,
        }


def _run_differential(ops, pte_format):
    fast = _World(MmuTables, GpuMmu, pte_format)
    ref = _World(ReferenceTables, ReferenceMmu, pte_format)
    for step, op in enumerate(ops):
        got, want = fast.apply(op), ref.apply(op)
        assert got == want, (step, op)
        assert fast.state() == ref.state(), (step, op)
        assert np.array_equal(fast.mem.pages_view(), ref.mem.pages_view()), \
            (step, op)


class TestRangeWalkDifferential:
    @given(mmu_ops, st.sampled_from([0, 1]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_page_reference(self, ops, pte_format):
        _run_differential(ops, pte_format)

    @pytest.mark.parametrize("pte_format", [0, 1])
    def test_stale_tlb_entry_inside_a_range(self, pte_format):
        """A TLB entry left stale by an unflushed remap is used for its
        page in the middle of a range, exactly as per-page lookup would."""
        _run_differential([
            ("map", LEAF - 2, 100, 4, RW),
            ("translate", LEAF - 1, 0, 1, "r"),     # fills one TLB entry
            ("unmap", LEAF - 1, 1),
            ("map", LEAF - 1, 900, 1, RW),          # no flush: stale TLB
            ("contiguous", LEAF - 2, 0, 4, "r"),
            ("flush",),
            ("contiguous", LEAF - 2, 0, 4, "w"),    # now non-contiguous
        ], pte_format)

    @pytest.mark.parametrize("pte_format", [0, 1])
    def test_range_across_l1_and_va_limit(self, pte_format):
        _run_differential([
            ("map", L1_SPAN - 3, 10, 6, RW),
            ("contiguous", L1_SPAN - 3, 8, 6, "r"),
            ("contiguous", L1_SPAN - 3, 8, 7, "r"),  # runs into a hole
            ("contiguous", VA_LIMIT - 1, 0, 2, "r"),
            ("translate", VA_LIMIT, 0, 1, "r"),
        ], pte_format)

    def test_overlap_error_leaves_same_partial_state(self):
        _run_differential([
            ("map", LEAF + 5, 40, 1, RW),
            ("map", LEAF - 3, 200, 20, RW),          # collides at LEAF + 5
            ("contiguous", LEAF - 3, 0, 8, "r"),
        ], 1)
