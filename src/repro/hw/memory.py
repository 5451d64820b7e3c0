"""Physical memory shared between CPU and GPU.

Mobile GPUs have no dedicated VRAM; CPU and GPU share main memory (§2.1).
This module models that memory as a single numpy-backed byte array with:

* a contiguous-range allocator (mobile GPU buffers come from CMA-style
  carveouts, and contiguity keeps numpy views cheap);
* page-granular dirty tracking, which memory synchronization (§5) uses to
  compute delta dumps between sync points;
* byte and typed-array access for the driver, runtime, and shader executor.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

PAGE_SIZE = 4096
PAGE_SHIFT = 12


def page_of(addr: int) -> int:
    return addr >> PAGE_SHIFT


def page_base(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def pages_spanning(addr: int, nbytes: int) -> range:
    """Page frame numbers touched by [addr, addr+nbytes)."""
    if nbytes <= 0:
        return range(0)
    return range(page_of(addr), page_of(addr + nbytes - 1) + 1)


def align_up(value: int, alignment: int = PAGE_SIZE) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


@dataclass(frozen=True)
class Region:
    """A named, contiguous physical allocation."""

    base: int
    size: int
    label: str

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.end


class OutOfMemoryError(MemoryError):
    """The physical carveout cannot satisfy an allocation."""


class MemoryReleasedError(RuntimeError):
    """Access to a :class:`PhysicalMemory` after :meth:`~PhysicalMemory.release`."""


class PhysicalMemory:
    """Byte-addressable physical memory with dirty tracking.

    The backing store starts at physical address ``base`` (a nonzero base
    catches confusions between offsets and addresses).
    """

    def __init__(self, size: int = 512 << 20, base: int = 0x8000_0000) -> None:
        if size % PAGE_SIZE:
            raise ValueError("memory size must be page aligned")
        self.base = base
        self.size = size
        self._store = np.zeros(size, dtype=np.uint8)
        self._next_free = base
        self._regions: List[Region] = []
        self._dirty: Set[int] = set()
        # Write-watch support for coherent caches (the GPU MMU's range
        # cache): consumers register page frames via watch_pages(), and
        # ``watch_epoch`` bumps whenever *any* watched page is written.
        self._watch: Set[int] = set()
        self._watch_arr: Optional[np.ndarray] = None
        self.watch_epoch = 0
        self.released = False

    # ------------------------------------------------------------------
    # Write watching (cache-coherency hook)
    # ------------------------------------------------------------------
    def watch_pages(self, pfns: Iterable[int]) -> None:
        """Add page frames to the write-watch set."""
        before = len(self._watch)
        self._watch.update(pfns)
        if len(self._watch) != before:
            self._watch_arr = None

    def _note_write(self, pages: Iterable[int]) -> None:
        if self._watch and not self._watch.isdisjoint(pages):
            self.watch_epoch += 1

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def release(self) -> None:
        """Free the backing store now rather than whenever the last
        reference goes.  Every later byte access raises
        :class:`MemoryReleasedError`; bookkeeping (regions, dirty set)
        stays readable."""
        self._store = np.empty(0, dtype=np.uint8)
        self.size = 0
        self.released = True

    def _released_error(self) -> MemoryReleasedError:
        return MemoryReleasedError(
            f"physical memory at {self.base:#x} was released")

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, size: int, label: str = "anon") -> Region:
        size = align_up(max(size, 1))
        if self._next_free + size > self.base + self.size:
            if self.released:
                raise self._released_error()
            raise OutOfMemoryError(
                f"cannot allocate {size} bytes for {label!r}: "
                f"{self.base + self.size - self._next_free} bytes free"
            )
        region = Region(base=self._next_free, size=size, label=label)
        self._next_free += size
        self._regions.append(region)
        return region

    def regions(self) -> List[Region]:
        return list(self._regions)

    def bytes_allocated(self) -> int:
        return self._next_free - self.base

    def _offset(self, pa: int, nbytes: int) -> int:
        off = pa - self.base
        if off < 0 or off + nbytes > self.size:
            if self.released:
                raise self._released_error()
            raise ValueError(
                f"physical access out of range: pa={pa:#x} len={nbytes}"
            )
        return off

    # ------------------------------------------------------------------
    # Byte access
    # ------------------------------------------------------------------
    def read(self, pa: int, nbytes: int) -> bytes:
        off = self._offset(pa, nbytes)
        return self._store[off:off + nbytes].tobytes()

    def write(self, pa: int, data: bytes) -> None:
        off = self._offset(pa, len(data))
        self._store[off:off + len(data)] = np.frombuffer(data, dtype=np.uint8)
        pages = pages_spanning(pa, len(data))
        self._dirty.update(pages)
        self._note_write(pages)

    def read_u64(self, pa: int) -> int:
        # Unpack straight from the backing store (page-table walks do
        # several of these per translation; no bytes round trip).
        return _U64.unpack_from(self._store, self._offset(pa, 8))[0]

    def write_u64(self, pa: int, value: int) -> None:
        self.write(pa, (value & (2**64 - 1)).to_bytes(8, "little"))

    def read_u32(self, pa: int) -> int:
        return _U32.unpack_from(self._store, self._offset(pa, 4))[0]

    def write_u32(self, pa: int, value: int) -> None:
        self.write(pa, (value & 0xFFFF_FFFF).to_bytes(4, "little"))

    def fill(self, pa: int, nbytes: int, value: int = 0) -> None:
        off = self._offset(pa, nbytes)
        self._store[off:off + nbytes] = value & 0xFF
        pages = pages_spanning(pa, nbytes)
        self._dirty.update(pages)
        self._note_write(pages)

    # ------------------------------------------------------------------
    # Typed numpy views (used by the shader executor for real math)
    # ------------------------------------------------------------------
    def view(self, pa: int, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        off = self._offset(pa, nbytes)
        return self._store[off:off + nbytes].view(dtype).reshape(shape)

    def write_array(self, pa: int, array: np.ndarray) -> None:
        flat = np.ascontiguousarray(array)
        raw = flat.view(np.uint8).reshape(-1)
        off = self._offset(pa, raw.size)
        self._store[off:off + raw.size] = raw
        pages = pages_spanning(pa, raw.size)
        self._dirty.update(pages)
        self._note_write(pages)

    def mark_dirty_range(self, pa: int, nbytes: int) -> None:
        """Record writes done through a raw :meth:`view`."""
        self._offset(pa, max(nbytes, 1))
        pages = pages_spanning(pa, nbytes)
        self._dirty.update(pages)
        self._note_write(pages)

    # ------------------------------------------------------------------
    # Dirty tracking for memory synchronization (§5)
    # ------------------------------------------------------------------
    def dirty_pages(self) -> Set[int]:
        return set(self._dirty)

    def take_dirty(self) -> Set[int]:
        """Return and clear the dirty set (one sync interval)."""
        dirty, self._dirty = self._dirty, set()
        return dirty

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def clear_dirty_pages(self, pfns: Iterable[int]) -> None:
        """Unmark specific pages (e.g. peer state installed by memory
        synchronization, which is not a local update to propagate)."""
        self._dirty.difference_update(pfns)

    def page_bytes(self, pfn: int) -> bytes:
        return self.read(pfn << PAGE_SHIFT, PAGE_SIZE)

    def write_page(self, pfn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError("page write must be exactly one page")
        self.write(pfn << PAGE_SHIFT, data)

    def write_pages(self, pfns: np.ndarray, pages: np.ndarray) -> None:
        """Install many whole pages at once.

        ``pfns`` is a sorted 1-D integer array, ``pages`` the matching
        ``(len(pfns), PAGE_SIZE)`` uint8 array.  Consecutive frame numbers
        collapse into single slice assignments, and runs whose bytes
        already match memory are skipped entirely (the store and the
        write-watch bump — content-identical restores leave translations
        valid, so the MMU's range cache survives steady-state replay).
        Resulting memory contents and dirty tracking are identical to
        per-page :meth:`write_page` calls.
        """
        n = len(pfns)
        if n == 0:
            return
        if pages.shape != (n, PAGE_SIZE):
            raise ValueError("page write must be exactly one page")
        # Bounds check the whole batch up front (same error as write()).
        self._offset(int(pfns[0]) << PAGE_SHIFT, PAGE_SIZE)
        self._offset(int(pfns[n - 1]) << PAGE_SHIFT, PAGE_SIZE)
        if self.base % PAGE_SIZE:
            for pfn, page in zip(pfns, pages):
                self.write_page(int(pfn), page.tobytes())
            return
        base_pfn = self.base >> PAGE_SHIFT
        store = self._store.reshape(-1, PAGE_SIZE)
        touched_watch = False
        # Run boundaries where the frame numbers stop being consecutive.
        cuts = np.nonzero(np.diff(pfns.astype(np.int64)) != 1)[0] + 1
        run_start = 0
        for run_end in (*cuts.tolist(), n):
            first = int(pfns[run_start]) - base_pfn
            incoming = pages[run_start:run_end]
            current = store[first:first + (run_end - run_start)]
            if not np.array_equal(current, incoming):
                if self._watch and not touched_watch:
                    if self._watch_arr is None:
                        self._watch_arr = np.fromiter(
                            self._watch, dtype=np.uint64,
                            count=len(self._watch))
                    run_pfns = pfns[run_start:run_end]
                    mask = np.isin(run_pfns, self._watch_arr)
                    # Only watched pages whose *own* bytes change count:
                    # a run mixing dirty data pages with byte-identical
                    # page-table pages must not invalidate translations.
                    touched_watch = any(
                        not np.array_equal(current[i], incoming[i])
                        for i in np.nonzero(mask)[0])
                current[:] = incoming
            run_start = run_end
        self._dirty.update(pfns.tolist())
        if touched_watch:
            self.watch_epoch += 1

    def pages_view(self) -> Optional[np.ndarray]:
        """The whole store as an ``(n_pages, PAGE_SIZE)`` uint8 view.

        Returns ``None`` when the physical base is not page aligned (no
        frame-number-indexable view exists then).  Row ``i`` is the page
        at frame ``(base >> PAGE_SHIFT) + i``.  Callers must treat the
        view as read-only: writes through it would bypass dirty tracking
        and the write watch.
        """
        if self.base % PAGE_SIZE:
            return None
        if self.released:
            raise self._released_error()
        return self._store.reshape(-1, PAGE_SIZE)

    def pages_of_region(self, region: Region) -> Iterable[int]:
        return pages_spanning(region.base, region.size)

    def snapshot_pages(self, pfns: Iterable[int]) -> Dict[int, bytes]:
        return {pfn: self.page_bytes(pfn) for pfn in pfns}

    def region_for(self, pa: int) -> Optional[Region]:
        for region in self._regions:
            if region.contains(pa):
                return region
        return None
