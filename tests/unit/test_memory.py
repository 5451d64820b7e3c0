"""Unit tests for physical memory: allocation, access, dirty tracking."""

import numpy as np
import pytest

from repro.hw.memory import (
    MemoryReleasedError,
    OutOfMemoryError,
    PAGE_SIZE,
    PhysicalMemory,
    align_up,
    page_of,
    pages_spanning,
)


class TestHelpers:
    def test_align_up(self):
        assert align_up(1) == PAGE_SIZE
        assert align_up(PAGE_SIZE) == PAGE_SIZE
        assert align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE

    def test_pages_spanning_single(self):
        assert len(pages_spanning(0, 1)) == 1

    def test_pages_spanning_boundary(self):
        assert len(pages_spanning(PAGE_SIZE - 1, 2)) == 2

    def test_pages_spanning_empty(self):
        assert len(pages_spanning(0, 0)) == 0

    def test_page_of(self):
        assert page_of(PAGE_SIZE * 3 + 17) == 3


class TestAllocation:
    def test_alloc_is_page_aligned(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(100, "x")
        assert region.base % PAGE_SIZE == 0
        assert region.size == PAGE_SIZE

    def test_alloc_regions_disjoint(self):
        mem = PhysicalMemory(size=1 << 20)
        a = mem.alloc(PAGE_SIZE, "a")
        b = mem.alloc(PAGE_SIZE, "b")
        assert a.end <= b.base

    def test_out_of_memory(self):
        mem = PhysicalMemory(size=1 << 20)
        with pytest.raises(OutOfMemoryError):
            mem.alloc(2 << 20, "too-big")

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(size=100)

    def test_region_lookup(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "target")
        assert mem.region_for(region.base + 10).label == "target"
        assert mem.region_for(mem.base + mem.size - 1) is None

    def test_bytes_allocated(self):
        mem = PhysicalMemory(size=1 << 20)
        mem.alloc(PAGE_SIZE, "a")
        mem.alloc(3 * PAGE_SIZE, "b")
        assert mem.bytes_allocated() == 4 * PAGE_SIZE


class TestAccess:
    def test_write_read_roundtrip(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.write(region.base, b"hello world")
        assert mem.read(region.base, 11) == b"hello world"

    def test_u64_roundtrip(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.write_u64(region.base, 0xDEAD_BEEF_CAFE_F00D)
        assert mem.read_u64(region.base) == 0xDEAD_BEEF_CAFE_F00D

    def test_u32_roundtrip(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.write_u32(region.base + 4, 0x1234_5678)
        assert mem.read_u32(region.base + 4) == 0x1234_5678

    def test_out_of_range_access(self):
        mem = PhysicalMemory(size=1 << 20)
        with pytest.raises(ValueError):
            mem.read(mem.base - 8, 4)
        with pytest.raises(ValueError):
            mem.read(mem.base + mem.size, 4)

    def test_array_roundtrip(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        data = np.arange(64, dtype=np.float32)
        mem.write_array(region.base, data)
        view = mem.view(region.base, (64,), np.float32)
        assert np.array_equal(view, data)

    def test_view_is_writable_alias(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        view = mem.view(region.base, (4,), np.float32)
        view[:] = 7.0
        assert mem.view(region.base, (4,), np.float32)[0] == 7.0

    def test_fill(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.fill(region.base, 16, 0xAB)
        assert mem.read(region.base, 16) == b"\xab" * 16


class TestDirtyTracking:
    def test_write_marks_dirty(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.write(region.base, b"abc")
        assert page_of(region.base) in mem.dirty_pages()

    def test_take_dirty_clears(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.write(region.base, b"abc")
        taken = mem.take_dirty()
        assert taken
        assert not mem.dirty_pages()

    def test_spanning_write_dirties_all_pages(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(3 * PAGE_SIZE, "x")
        mem.write(region.base, b"\x01" * (2 * PAGE_SIZE + 10))
        assert len(mem.dirty_pages()) == 3

    def test_view_writes_need_explicit_marking(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        mem.clear_dirty()
        view = mem.view(region.base, (4,), np.float32)
        view[:] = 1.0
        assert not mem.dirty_pages()  # raw views bypass tracking...
        mem.mark_dirty_range(region.base, 16)
        assert mem.dirty_pages()  # ...until marked, as the executor does

    def test_page_roundtrip(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        pfn = page_of(region.base)
        data = bytes(range(256)) * 16
        mem.write_page(pfn, data)
        assert mem.page_bytes(pfn) == data

    def test_write_page_requires_full_page(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "x")
        with pytest.raises(ValueError):
            mem.write_page(page_of(region.base), b"short")

    def test_snapshot_pages(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(2 * PAGE_SIZE, "x")
        mem.write(region.base, b"\x05" * 8)
        pfns = list(mem.pages_of_region(region))
        snap = mem.snapshot_pages(pfns)
        assert set(snap) == set(pfns)
        assert snap[page_of(region.base)][:8] == b"\x05" * 8


class TestRelease:
    def released(self):
        mem = PhysicalMemory(size=1 << 20)
        region = mem.alloc(PAGE_SIZE, "buf")
        mem.write(region.base, b"\x07" * 16)
        mem.release()
        return mem, region

    def test_every_access_raises(self):
        mem, region = self.released()
        pfns = np.array([region.base >> 12])
        accesses = [
            lambda: mem.read(region.base, 16),
            lambda: mem.read_u64(region.base),
            lambda: mem.write_u32(region.base, 1),
            lambda: mem.fill(region.base, 8, 0),
            lambda: mem.view(region.base, (4,)),
            lambda: mem.write_array(region.base, np.zeros(4, np.float32)),
            lambda: mem.write_pages(pfns, np.zeros((1, PAGE_SIZE), np.uint8)),
            lambda: mem.pages_view(),
            lambda: mem.alloc(PAGE_SIZE),
        ]
        for access in accesses:
            with pytest.raises(MemoryReleasedError):
                access()

    def test_bookkeeping_survives(self):
        mem, region = self.released()
        assert mem.released
        assert mem.regions() == [region]
        assert region.base >> 12 in mem.dirty_pages()
