"""The GPU device model: registers, power domains, job slots, IRQs.

:class:`MaliGpu` is the single source of truth for GPU state.  Everything
above it — the local driver, GR-T's GPUShim, the replayer — interacts with
it only through :meth:`read_reg`/:meth:`write_reg` and the IRQ callback,
mirroring the real hardware interface.

Time: the GPU is bound to a :class:`~repro.sim.clock.VirtualClock` and keeps
an internal event queue (power transitions, cache flushes, job completions).
``service()`` fires all events due at the current virtual time; register
accesses service implicitly.  ``next_event_time()`` lets a waiting host
fast-forward the clock to the next hardware event instead of busy-spinning.

Nondeterminism: ``LATEST_FLUSH`` returns a cache-flush epoch counter whose
value depends on execution history.  This is the register the paper calls
out (§7.3) as defeating the speculation criteria for a small class of
commits, and the model preserves that property.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.hw import regs
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import GpuMmu, GpuPageFault
from repro.hw.regs import (
    AsCommand,
    AsStatusBits,
    GpuCommand,
    GpuIrq,
    GpuStatusBits,
    JsCommand,
    JsStatus,
    NUM_ADDRESS_SPACES,
    NUM_JOB_SLOTS,
    PWR_KEY_MAGIC,
)
from repro.hw.shader import ShaderExecutor, SkuMismatchError
from repro.hw.sku import GpuSku
from repro.sim.clock import VirtualClock

# Hardware latencies (seconds).
POWER_TRANSITION_S = 120e-6
AS_COMMAND_S = 2e-6
CACHE_FLUSH_S = 18e-6
SOFT_RESET_S = 250e-6


class GpuIrqLine:
    JOB = "job"
    GPU = "gpu"
    MMU = "mmu"


@dataclass
class _JobSlot:
    head: int = 0
    tail: int = 0
    affinity: int = 0
    config: int = 0
    status: int = JsStatus.IDLE
    command: int = 0
    head_next: int = 0
    config_next: int = 0
    flush_id_next: int = 0
    active_until: float = -1.0


@dataclass
class _AddressSpace:
    transtab: int = 0
    memattr: int = 0
    transcfg: int = 0
    lockaddr: int = 0
    faultstatus: int = 0
    faultaddress: int = 0
    active_until: float = -1.0


# Register writes whose handlers schedule internal events or otherwise
# read the clock: their behaviour depends on *when* the write lands, so
# the compiled replayer must replay them one at a time with the exact
# per-entry clock advance.  Every other write is a pure state update and
# may be applied in a back-to-back batch (see ``MaliGpu.write_regs``).
EFFECTFUL_WRITE_OFFSETS = frozenset(
    {
        regs.GPU_COMMAND,
        regs.SHADER_PWRON_LO, regs.TILER_PWRON_LO, regs.L2_PWRON_LO,
        regs.SHADER_PWROFF_LO, regs.TILER_PWROFF_LO, regs.L2_PWROFF_LO,
    }
    | {regs.JOB_SLOT_BASE + nr * regs.JOB_SLOT_STRIDE + off
       for nr in range(NUM_JOB_SLOTS)
       for off in (regs.JS_COMMAND_NEXT, regs.JS_COMMAND)}
    | {regs.AS_BASE + nr * regs.AS_STRIDE + regs.AS_COMMAND
       for nr in range(NUM_ADDRESS_SPACES)}
)


def is_batchable_write(offset: int) -> bool:
    """True if a write to ``offset`` is a pure state update (no event
    scheduling, no clock dependence) and therefore batchable."""
    return offset not in EFFECTFUL_WRITE_OFFSETS


class MaliGpu:
    """Register-level model of a Mali-Bifrost-style GPU."""

    def __init__(self, sku: GpuSku, mem: PhysicalMemory,
                 clock: VirtualClock) -> None:
        self.sku = sku
        self.mem = mem
        self.clock = clock
        self.mmu = GpuMmu(mem, sku.pte_format)
        self.executor = ShaderExecutor(mem, self.mmu, sku.gpu_id, sku.gflops)

        # IRQ state per line: (rawstat, mask).
        self._irq_raw: Dict[str, int] = {l: 0 for l in
                                         (GpuIrqLine.JOB, GpuIrqLine.GPU, GpuIrqLine.MMU)}
        self._irq_mask: Dict[str, int] = {l: 0 for l in self._irq_raw}
        self.irq_sink: Optional[Callable[[str], None]] = None

        # Power domains: ready / power-transition bitmasks.
        self._ready: Dict[str, int] = {"shader": 0, "tiler": 0, "l2": 0}
        self._pwrtrans: Dict[str, int] = {"shader": 0, "tiler": 0, "l2": 0}

        self._slots = [_JobSlot() for _ in range(NUM_JOB_SLOTS)]
        self._spaces = [_AddressSpace() for _ in range(NUM_ADDRESS_SPACES)]

        self._flush_epoch = 0
        self._flush_active_until = -1.0
        self._reset_active_until = -1.0
        self._pwr_key_unlocked = False
        self._pwr_override0 = 0
        self._shader_config = 0
        self._tiler_config = 0
        self._l2_mmu_config = 0

        # (when, seq, (handler, args)): ``handler(self, *args)`` fires at
        # ``when``.  Handlers are plain functions, not closures over the
        # GPU, so pending events never hold it in a reference cycle.
        self._events: List[Tuple[float, int, Tuple[Callable[..., None], tuple]]] = []
        self._event_seq = 0
        self._service_time: Optional[float] = None

        # GPU clock scale relative to the SKU's nominal rate; set by the
        # SoC clock controller (DVFS).  Scales job durations.
        self.clock_scale = 1.0

        # Observability for tests and the energy model.
        self.reg_reads = 0
        self.reg_writes = 0
        self.jobs_completed = 0
        self.jobs_faulted = 0
        self.resets = 0

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------
    def _schedule(self, delay_s: float, handler: Callable[..., None],
                  *args) -> float:
        # Events scheduled from inside another event's handler cascade
        # from that event's logical time, not from wherever the wall
        # clock happens to be when the backlog is serviced.
        base = self._service_time if self._service_time is not None \
            else self.clock.now
        when = base + delay_s
        heapq.heappush(self._events, (when, self._event_seq, (handler, args)))
        self._event_seq += 1
        return when

    def next_event_time(self) -> Optional[float]:
        return self._events[0][0] if self._events else None

    def shift_events(self, dt: float) -> None:
        """Hold the GPU for ``dt`` virtual seconds: push every pending
        deadline into the future by the same amount.

        This is the hardware half of the recorder's clock-gating trick:
        when the WAN stalls (retransmission timeouts, jitter spikes),
        GPUShim gates the GPU so the stall is invisible to it — every
        in-flight job completion, power transition, flush and reset
        deadline moves by exactly the stall, so the GPU-relative timing
        of the session (and hence the recording's poll iteration counts
        and status reads) is identical to a stall-free run (§2.3/§6's
        determinism requirement extended to link faults).
        """
        if dt <= 0:
            return
        self._events = [(when + dt, seq, event)
                        for (when, seq, event) in self._events]
        heapq.heapify(self._events)
        for slot in self._slots:
            if slot.active_until > 0:
                slot.active_until += dt
        for space in self._spaces:
            if space.active_until > 0:
                space.active_until += dt
        if self._flush_active_until > 0:
            self._flush_active_until += dt
        if self._reset_active_until > 0:
            self._reset_active_until += dt

    def service(self) -> None:
        """Fire all internal events due at or before the current time."""
        now = self.clock.now
        while self._events and self._events[0][0] <= now + 1e-12:
            when, _, (handler, args) = heapq.heappop(self._events)
            self._service_time = when
            try:
                handler(self, *args)
            finally:
                self._service_time = None

    # ------------------------------------------------------------------
    # IRQ handling
    # ------------------------------------------------------------------
    def _raise_irq(self, line: str, bits: int) -> None:
        self._irq_raw[line] |= bits
        if self._irq_raw[line] & self._irq_mask[line] and self.irq_sink:
            self.irq_sink(line)

    def irq_pending(self, line: str) -> bool:
        self.service()
        return bool(self._irq_raw[line] & self._irq_mask[line])

    def any_irq_pending(self) -> Optional[str]:
        self.service()
        for line in (GpuIrqLine.JOB, GpuIrqLine.GPU, GpuIrqLine.MMU):
            if self._irq_raw[line] & self._irq_mask[line]:
                return line
        return None

    # ------------------------------------------------------------------
    # Register file
    # ------------------------------------------------------------------
    def read_reg(self, offset: int) -> int:
        self.service()
        self.reg_reads += 1
        value = self._read(offset)
        return value & 0xFFFF_FFFF

    def write_reg(self, offset: int, value: int) -> None:
        self.service()
        self.reg_writes += 1
        self._write(offset, value & 0xFFFF_FFFF)

    def write_regs(self, offsets, values) -> None:
        """Apply a batch of register writes back to back.

        Equivalent to ``write_reg`` per pair *provided no internal event
        falls due during the batch* — the caller (the compiled replayer)
        guarantees that by checking :meth:`next_event_time` against the
        batch's virtual-time window before batching, and only ever batches
        offsets for which :func:`is_batchable_write` holds (writes that
        neither schedule events nor read the clock).  Under those two
        conditions the single leading ``service()`` observes the same due
        set as per-write servicing would, and write order is preserved.
        """
        self.service()
        self.reg_writes += len(offsets)
        dispatch = _WRITE_DISPATCH
        for offset, value in zip(offsets, values):
            fn = dispatch.get(offset)
            if fn is not None:
                fn(self, value & 0xFFFF_FFFF)
            else:
                self._write_slow(offset, value & 0xFFFF_FFFF)

    def read_regs(self, offsets) -> tuple:
        """Read a batch of registers back to back.

        One leading ``service()`` covers the whole batch; reads in this
        model are side-effect free (no read-to-clear registers), so the
        result equals per-offset ``read_reg`` calls at the same instant.
        The compiled replayer uses this speculatively: if a speculation
        fails it re-reads per entry, so ``reg_reads`` may overcount by the
        batch size on that (rare, divergence-adjacent) path.
        """
        self.service()
        self.reg_reads += len(offsets)
        dispatch = _READ_DISPATCH
        slow = self._read_slow
        return tuple(
            (fn(self) if (fn := dispatch.get(offset)) is not None
             else slow(offset)) & 0xFFFF_FFFF
            for offset in offsets)

    # -- dispatch -------------------------------------------------------
    def _read(self, offset: int) -> int:
        fn = _READ_DISPATCH.get(offset)
        if fn is not None:
            return fn(self)
        return self._read_slow(offset)

    def _write(self, offset: int, value: int) -> None:
        fn = _WRITE_DISPATCH.get(offset)
        if fn is not None:
            fn(self, value)
            return
        self._write_slow(offset, value)

    def _irq_clear(self, line: str, value: int) -> None:
        self._irq_raw[line] &= ~value

    def _irq_set_mask(self, line: str, value: int) -> None:
        self._irq_mask[line] = value

    def _read_gpu_status(self) -> int:
        now = self.clock.now
        status = 0
        if any(s.active_until > now for s in self._slots):
            status |= GpuStatusBits.GPU_ACTIVE
        if any(t for t in self._pwrtrans.values()):
            status |= GpuStatusBits.POWER_TRANS
        return status

    def _read_js_state(self) -> int:
        now = self.clock.now
        state = 0
        for i, slot in enumerate(self._slots):
            if slot.active_until > now:
                state |= 1 << i
        return state

    # -- reads ----------------------------------------------------------
    def _read_slow(self, offset: int) -> int:
        sku = self.sku
        if offset == regs.GPU_ID:
            return sku.gpu_id
        if offset == regs.L2_FEATURES:
            return 0x07120206 | (sku.l2_slices << 24)
        if offset == regs.CORE_FEATURES:
            return sku.core_count
        if offset == regs.TILER_FEATURES:
            return 0x00000809
        if offset == regs.MEM_FEATURES:
            return 0x1 | (sku.l2_slices << 8)
        if offset == regs.MMU_FEATURES:
            return (sku.va_bits) | (40 << 8)  # VA bits | PA bits
        if offset == regs.AS_PRESENT:
            return (1 << NUM_ADDRESS_SPACES) - 1
        if offset == regs.JS_PRESENT:
            return (1 << NUM_JOB_SLOTS) - 1
        if offset == regs.THREAD_MAX_THREADS:
            return 384 * sku.core_count
        if offset == regs.THREAD_MAX_WORKGROUP_SIZE:
            return 384
        if offset == regs.THREAD_MAX_BARRIER_SIZE:
            return 384
        if offset == regs.THREAD_FEATURES:
            return 0x0400_0406
        if regs.TEXTURE_FEATURES_0 <= offset <= regs.TEXTURE_FEATURES_2:
            return 0x00FE001E
        if regs.JS0_FEATURES <= offset < regs.JS0_FEATURES + 4 * NUM_JOB_SLOTS:
            return 0x20E  # compute-capable slot
        if offset == regs.GPU_IRQ_RAWSTAT:
            return self._irq_raw[GpuIrqLine.GPU]
        if offset == regs.GPU_IRQ_MASK:
            return self._irq_mask[GpuIrqLine.GPU]
        if offset == regs.GPU_IRQ_STATUS:
            return self._irq_raw[GpuIrqLine.GPU] & self._irq_mask[GpuIrqLine.GPU]
        if offset == regs.GPU_STATUS:
            return self._read_gpu_status()
        if offset == regs.LATEST_FLUSH:
            # Cache-flush epoch: history dependent, hence nondeterministic
            # from the driver's point of view (§7.3).
            return self._flush_epoch
        if offset == regs.GPU_FAULTSTATUS:
            return 0
        if offset == regs.SHADER_PRESENT_LO:
            return sku.shader_present_mask & 0xFFFF_FFFF
        if offset == regs.SHADER_PRESENT_HI:
            return sku.shader_present_mask >> 32
        if offset == regs.TILER_PRESENT_LO:
            return sku.tiler_present_mask
        if offset == regs.TILER_PRESENT_HI:
            return 0
        if offset == regs.L2_PRESENT_LO:
            return sku.l2_present_mask
        if offset == regs.L2_PRESENT_HI:
            return 0
        if offset in (regs.STACK_PRESENT_LO, regs.STACK_PRESENT_HI):
            return 0
        for base, domain in ((regs.SHADER_READY_LO, "shader"),
                             (regs.TILER_READY_LO, "tiler"),
                             (regs.L2_READY_LO, "l2")):
            if offset == base:
                return self._ready[domain] & 0xFFFF_FFFF
            if offset == base + 4:
                return self._ready[domain] >> 32
        for base, domain in ((regs.SHADER_PWRTRANS_LO, "shader"),
                             (regs.TILER_PWRTRANS_LO, "tiler"),
                             (regs.L2_PWRTRANS_LO, "l2")):
            if offset == base:
                return self._pwrtrans[domain] & 0xFFFF_FFFF
            if offset == base + 4:
                return self._pwrtrans[domain] >> 32
        if offset == regs.SHADER_CONFIG:
            return self._shader_config
        if offset == regs.TILER_CONFIG:
            return self._tiler_config
        if offset == regs.L2_MMU_CONFIG:
            return self._l2_mmu_config
        if offset == regs.PWR_OVERRIDE0:
            return self._pwr_override0
        if offset == regs.JOB_IRQ_RAWSTAT:
            return self._irq_raw[GpuIrqLine.JOB]
        if offset == regs.JOB_IRQ_MASK:
            return self._irq_mask[GpuIrqLine.JOB]
        if offset == regs.JOB_IRQ_STATUS:
            return self._irq_raw[GpuIrqLine.JOB] & self._irq_mask[GpuIrqLine.JOB]
        if offset == regs.JOB_IRQ_JS_STATE:
            return self._read_js_state()
        if offset == regs.MMU_IRQ_RAWSTAT:
            return self._irq_raw[GpuIrqLine.MMU]
        if offset == regs.MMU_IRQ_MASK:
            return self._irq_mask[GpuIrqLine.MMU]
        if offset == regs.MMU_IRQ_STATUS:
            return self._irq_raw[GpuIrqLine.MMU] & self._irq_mask[GpuIrqLine.MMU]
        slot_nr, slot_off = self._slot_offset(offset)
        if slot_nr is not None:
            return self._read_slot(slot_nr, slot_off)
        as_nr, as_off = self._as_offset(offset)
        if as_nr is not None:
            return self._read_as(as_nr, as_off)
        return 0

    def _read_slot(self, nr: int, off: int) -> int:
        slot = self._slots[nr]
        if off == regs.JS_HEAD_LO:
            return slot.head & 0xFFFF_FFFF
        if off == regs.JS_HEAD_HI:
            return slot.head >> 32
        if off == regs.JS_TAIL_LO:
            return slot.tail & 0xFFFF_FFFF
        if off == regs.JS_TAIL_HI:
            return slot.tail >> 32
        if off == regs.JS_AFFINITY_LO:
            return slot.affinity & 0xFFFF_FFFF
        if off == regs.JS_AFFINITY_HI:
            return slot.affinity >> 32
        if off == regs.JS_CONFIG:
            return slot.config
        if off == regs.JS_STATUS:
            if slot.active_until > self.clock.now:
                return JsStatus.ACTIVE
            return slot.status
        return 0

    def _read_as(self, nr: int, off: int) -> int:
        space = self._spaces[nr]
        if off == regs.AS_TRANSTAB_LO:
            return space.transtab & 0xFFFF_FFFF
        if off == regs.AS_TRANSTAB_HI:
            return space.transtab >> 32
        if off == regs.AS_MEMATTR_LO:
            return space.memattr & 0xFFFF_FFFF
        if off == regs.AS_MEMATTR_HI:
            return space.memattr >> 32
        if off == regs.AS_STATUS:
            return AsStatusBits.ACTIVE if space.active_until > self.clock.now else 0
        if off == regs.AS_FAULTSTATUS:
            return space.faultstatus
        if off == regs.AS_FAULTADDRESS_LO:
            return space.faultaddress & 0xFFFF_FFFF
        if off == regs.AS_FAULTADDRESS_HI:
            return space.faultaddress >> 32
        if off == regs.AS_TRANSCFG_LO:
            return space.transcfg & 0xFFFF_FFFF
        if off == regs.AS_TRANSCFG_HI:
            return space.transcfg >> 32
        return 0

    # -- writes ---------------------------------------------------------
    def _write_slow(self, offset: int, value: int) -> None:
        if offset == regs.GPU_IRQ_CLEAR:
            self._irq_raw[GpuIrqLine.GPU] &= ~value
            return
        if offset == regs.GPU_IRQ_MASK:
            self._irq_mask[GpuIrqLine.GPU] = value
            return
        if offset == regs.GPU_COMMAND:
            self._gpu_command(value)
            return
        if offset == regs.PWR_KEY:
            self._pwr_key_unlocked = value == PWR_KEY_MAGIC
            return
        if offset == regs.PWR_OVERRIDE0:
            if self._pwr_key_unlocked:
                self._pwr_override0 = value
            return
        if offset == regs.SHADER_CONFIG:
            self._shader_config = value
            return
        if offset == regs.TILER_CONFIG:
            self._tiler_config = value
            return
        if offset == regs.L2_MMU_CONFIG:
            self._l2_mmu_config = value
            return
        for base, domain, present in (
            (regs.SHADER_PWRON_LO, "shader", self.sku.shader_present_mask),
            (regs.TILER_PWRON_LO, "tiler", self.sku.tiler_present_mask),
            (regs.L2_PWRON_LO, "l2", self.sku.l2_present_mask),
        ):
            if offset == base:
                self._power_on(domain, value & present)
                return
            if offset == base + 4:
                return  # HI words unused (<=32 cores modelled)
        for base, domain in ((regs.SHADER_PWROFF_LO, "shader"),
                             (regs.TILER_PWROFF_LO, "tiler"),
                             (regs.L2_PWROFF_LO, "l2")):
            if offset == base:
                self._power_off(domain, value)
                return
            if offset == base + 4:
                return
        if offset == regs.JOB_IRQ_CLEAR:
            self._irq_raw[GpuIrqLine.JOB] &= ~value
            return
        if offset == regs.JOB_IRQ_MASK:
            self._irq_mask[GpuIrqLine.JOB] = value
            return
        if offset == regs.MMU_IRQ_CLEAR:
            self._irq_raw[GpuIrqLine.MMU] &= ~value
            return
        if offset == regs.MMU_IRQ_MASK:
            self._irq_mask[GpuIrqLine.MMU] = value
            return
        slot_nr, slot_off = self._slot_offset(offset)
        if slot_nr is not None:
            self._write_slot(slot_nr, slot_off, value)
            return
        as_nr, as_off = self._as_offset(offset)
        if as_nr is not None:
            self._write_as(as_nr, as_off, value)
            return
        # Unknown/ignored registers accept writes silently, like hardware.

    # ------------------------------------------------------------------
    # Power domain state machine (§4.2: "repeated GPU state transitions")
    # ------------------------------------------------------------------
    def _power_on(self, domain: str, mask: int) -> None:
        to_on = mask & ~self._ready[domain]
        if not to_on:
            return
        self._pwrtrans[domain] |= to_on
        self._schedule(POWER_TRANSITION_S, MaliGpu._powered_on, domain, to_on)

    def _powered_on(self, domain: str, mask: int) -> None:
        # Shader and tiler cores sit behind the L2: they cannot come up
        # until their cache slice is powered (real Mali domain dependency
        # — drivers must sequence L2 first).
        if domain != "l2" and self._ready["l2"] != self.sku.l2_present_mask:
            self._schedule(POWER_TRANSITION_S, MaliGpu._powered_on,
                           domain, mask)
            return
        self._pwrtrans[domain] &= ~mask
        self._ready[domain] |= mask
        self._raise_irq(GpuIrqLine.GPU, GpuIrq.POWER_CHANGED_ALL)

    def _power_off(self, domain: str, mask: int) -> None:
        to_off = mask & self._ready[domain]
        if not to_off:
            return
        self._pwrtrans[domain] |= to_off
        self._schedule(POWER_TRANSITION_S, MaliGpu._powered_off,
                       domain, to_off)

    def _powered_off(self, domain: str, mask: int) -> None:
        self._pwrtrans[domain] &= ~mask
        self._ready[domain] &= ~mask
        self._raise_irq(GpuIrqLine.GPU, GpuIrq.POWER_CHANGED_ALL)

    def domains_ready(self) -> Dict[str, int]:
        self.service()
        return dict(self._ready)

    # ------------------------------------------------------------------
    # GPU commands
    # ------------------------------------------------------------------
    def _gpu_command(self, cmd: int) -> None:
        if cmd in (GpuCommand.SOFT_RESET, GpuCommand.HARD_RESET):
            self._do_reset(hard=cmd == GpuCommand.HARD_RESET)
        elif cmd in (GpuCommand.CLEAN_CACHES, GpuCommand.CLEAN_INV_CACHES):
            self._flush_epoch += 1
            self._flush_active_until = self._schedule(
                CACHE_FLUSH_S, MaliGpu._raise_irq, GpuIrqLine.GPU,
                GpuIrq.CLEAN_CACHES_COMPLETED)
        # NOP / perf-counter commands: accepted, no modelled effect.

    def _do_reset(self, hard: bool) -> None:
        self.resets += 1
        self._events.clear()
        for line in self._irq_raw:
            self._irq_raw[line] = 0
            self._irq_mask[line] = 0
        for domain in self._ready:
            self._ready[domain] = 0
            self._pwrtrans[domain] = 0
        self._slots = [_JobSlot() for _ in range(NUM_JOB_SLOTS)]
        self._spaces = [_AddressSpace() for _ in range(NUM_ADDRESS_SPACES)]
        self.mmu.configure(0, enabled=False)
        self._shader_config = 0
        self._tiler_config = 0
        self._l2_mmu_config = 0
        self._pwr_override0 = 0
        self._pwr_key_unlocked = False
        if hard:
            self._flush_epoch = 0
        self._reset_active_until = self._schedule(
            SOFT_RESET_S, MaliGpu._raise_irq, GpuIrqLine.GPU,
            GpuIrq.RESET_COMPLETED)

    def hard_reset_now(self) -> None:
        """Out-of-band reset used by the TEE before/after replay (§3.2)."""
        self._do_reset(hard=True)
        self.service()
        self._events.clear()
        self._irq_raw = {l: 0 for l in self._irq_raw}

    # ------------------------------------------------------------------
    # Job slots
    # ------------------------------------------------------------------
    def _slot_offset(self, offset: int) -> Tuple[Optional[int], int]:
        if regs.JOB_SLOT_BASE <= offset < (regs.JOB_SLOT_BASE
                                           + NUM_JOB_SLOTS * regs.JOB_SLOT_STRIDE):
            rel = offset - regs.JOB_SLOT_BASE
            return rel // regs.JOB_SLOT_STRIDE, rel % regs.JOB_SLOT_STRIDE
        return None, 0

    def _write_slot(self, nr: int, off: int, value: int) -> None:
        slot = self._slots[nr]
        if off == regs.JS_HEAD_NEXT_LO:
            slot.head_next = (slot.head_next & ~0xFFFF_FFFF) | value
        elif off == regs.JS_HEAD_NEXT_HI:
            slot.head_next = (slot.head_next & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.JS_AFFINITY_NEXT_LO:
            slot.affinity = (slot.affinity & ~0xFFFF_FFFF) | value
        elif off == regs.JS_AFFINITY_NEXT_HI:
            slot.affinity = (slot.affinity & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.JS_CONFIG_NEXT:
            slot.config_next = value
        elif off == regs.JS_FLUSH_ID_NEXT:
            slot.flush_id_next = value
        elif off == regs.JS_COMMAND_NEXT:
            if value == JsCommand.START:
                self._start_job(nr)
        elif off == regs.JS_COMMAND:
            if value in (JsCommand.SOFT_STOP, JsCommand.HARD_STOP):
                slot.active_until = -1.0
                slot.status = JsStatus.IDLE

    def _start_job(self, nr: int) -> None:
        slot = self._slots[nr]
        slot.head = slot.head_next
        slot.tail = slot.head_next
        slot.config = slot.config_next
        slot.status = JsStatus.ACTIVE
        try:
            result = self.executor.run_job(slot.head)
        except (GpuPageFault, SkuMismatchError, ValueError) as exc:
            self.jobs_faulted += 1
            fault_status = (JsStatus.JOB_READ_FAULT
                            if isinstance(exc, GpuPageFault)
                            else JsStatus.JOB_CONFIG_FAULT)
            slot.active_until = self._schedule(
                10e-6, MaliGpu._job_faulted, slot, nr, fault_status)
            return
        duration = result.duration_s / max(self.clock_scale, 1e-6)
        slot.active_until = self._schedule(duration, MaliGpu._job_done,
                                           slot, nr)

    def _job_faulted(self, slot: _JobSlot, nr: int, status: int) -> None:
        slot.status = status
        slot.active_until = -1.0
        # Mali signals job failure on bit (16 + slot).
        self._raise_irq(GpuIrqLine.JOB, 1 << (16 + nr))

    def _job_done(self, slot: _JobSlot, nr: int) -> None:
        slot.status = JsStatus.DONE
        slot.active_until = -1.0
        self.jobs_completed += 1
        self._raise_irq(GpuIrqLine.JOB, 1 << nr)

    # ------------------------------------------------------------------
    # Address spaces
    # ------------------------------------------------------------------
    def _as_offset(self, offset: int) -> Tuple[Optional[int], int]:
        if regs.AS_BASE <= offset < regs.AS_BASE + NUM_ADDRESS_SPACES * regs.AS_STRIDE:
            rel = offset - regs.AS_BASE
            return rel // regs.AS_STRIDE, rel % regs.AS_STRIDE
        return None, 0

    def _write_as(self, nr: int, off: int, value: int) -> None:
        space = self._spaces[nr]
        if off == regs.AS_TRANSTAB_LO:
            space.transtab = (space.transtab & ~0xFFFF_FFFF) | value
        elif off == regs.AS_TRANSTAB_HI:
            space.transtab = (space.transtab & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.AS_MEMATTR_LO:
            space.memattr = (space.memattr & ~0xFFFF_FFFF) | value
        elif off == regs.AS_MEMATTR_HI:
            space.memattr = (space.memattr & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.AS_LOCKADDR_LO:
            space.lockaddr = (space.lockaddr & ~0xFFFF_FFFF) | value
        elif off == regs.AS_LOCKADDR_HI:
            space.lockaddr = (space.lockaddr & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.AS_TRANSCFG_LO:
            space.transcfg = (space.transcfg & ~0xFFFF_FFFF) | value
        elif off == regs.AS_TRANSCFG_HI:
            space.transcfg = (space.transcfg & 0xFFFF_FFFF) | (value << 32)
        elif off == regs.AS_COMMAND:
            self._as_command(nr, value)

    def _as_command(self, nr: int, cmd: int) -> None:
        space = self._spaces[nr]
        if cmd == AsCommand.UPDATE:
            # AS0 drives the modelled MMU; other spaces accept commands but
            # have no translation consumers in this model.
            if nr == 0:
                enabled = space.transtab != 0
                self.mmu.configure(space.transtab, enabled=enabled)
        elif cmd in (AsCommand.FLUSH_PT, AsCommand.FLUSH_MEM):
            if nr == 0:
                self.mmu.flush_tlb()
        elif cmd in (AsCommand.LOCK, AsCommand.UNLOCK, AsCommand.NOP):
            pass
        space.active_until = self._schedule(AS_COMMAND_S, _no_effect)

    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        self.service()
        now = self.clock.now
        return (not any(s.active_until > now for s in self._slots)
                and self._flush_active_until <= now
                and self._reset_active_until <= now
                and not any(self._pwrtrans.values()))


def _no_effect(gpu: MaliGpu) -> None:
    """Event handler for a completion with no modelled side effect."""


def _build_dispatch():
    """Per-offset register dispatch tables, built once for the class.

    The if-chains in ``_read_slow``/``_write_slow`` remain the complete
    reference decode; the tables shortcut the hot offsets (replay touches
    the register file once per recording entry).  Entries are functions
    of the GPU (readers ``fn(gpu)``, writers ``fn(gpu, value)``) that
    capture slot / address-space *indices*, never state objects: reset
    replaces ``_slots``/``_spaces``/``_irq_raw`` wholesale, so all state
    is looked up through the GPU at call time.
    """
    rd: Dict[int, Callable[[MaliGpu], int]] = {}
    wr: Dict[int, Callable[[MaliGpu, int], None]] = {}

    for line, rs, ms, st, cl in (
        (GpuIrqLine.GPU, regs.GPU_IRQ_RAWSTAT, regs.GPU_IRQ_MASK,
         regs.GPU_IRQ_STATUS, regs.GPU_IRQ_CLEAR),
        (GpuIrqLine.JOB, regs.JOB_IRQ_RAWSTAT, regs.JOB_IRQ_MASK,
         regs.JOB_IRQ_STATUS, regs.JOB_IRQ_CLEAR),
        (GpuIrqLine.MMU, regs.MMU_IRQ_RAWSTAT, regs.MMU_IRQ_MASK,
         regs.MMU_IRQ_STATUS, regs.MMU_IRQ_CLEAR),
    ):
        rd[rs] = lambda g, l=line: g._irq_raw[l]
        rd[ms] = lambda g, l=line: g._irq_mask[l]
        rd[st] = lambda g, l=line: g._irq_raw[l] & g._irq_mask[l]
        wr[cl] = lambda g, v, l=line: g._irq_clear(l, v)
        wr[ms] = lambda g, v, l=line: g._irq_set_mask(l, v)

    rd[regs.LATEST_FLUSH] = lambda g: g._flush_epoch
    rd[regs.GPU_STATUS] = MaliGpu._read_gpu_status
    rd[regs.JOB_IRQ_JS_STATE] = MaliGpu._read_js_state
    rd[regs.SHADER_CONFIG] = lambda g: g._shader_config
    rd[regs.TILER_CONFIG] = lambda g: g._tiler_config
    rd[regs.L2_MMU_CONFIG] = lambda g: g._l2_mmu_config
    rd[regs.PWR_OVERRIDE0] = lambda g: g._pwr_override0
    for base, domain in ((regs.SHADER_READY_LO, "shader"),
                         (regs.TILER_READY_LO, "tiler"),
                         (regs.L2_READY_LO, "l2")):
        rd[base] = lambda g, d=domain: g._ready[d] & 0xFFFF_FFFF
        rd[base + 4] = lambda g, d=domain: g._ready[d] >> 32
    for base, domain in ((regs.SHADER_PWRTRANS_LO, "shader"),
                         (regs.TILER_PWRTRANS_LO, "tiler"),
                         (regs.L2_PWRTRANS_LO, "l2")):
        rd[base] = lambda g, d=domain: g._pwrtrans[d] & 0xFFFF_FFFF
        rd[base + 4] = lambda g, d=domain: g._pwrtrans[d] >> 32

    # Job-slot and address-space banks: delegate with precomputed
    # (index, relative offset), skipping the divmod decode per access.
    for nr in range(NUM_JOB_SLOTS):
        base = regs.JOB_SLOT_BASE + nr * regs.JOB_SLOT_STRIDE
        for off in (regs.JS_HEAD_LO, regs.JS_HEAD_HI, regs.JS_TAIL_LO,
                    regs.JS_TAIL_HI, regs.JS_AFFINITY_LO,
                    regs.JS_AFFINITY_HI, regs.JS_CONFIG, regs.JS_STATUS):
            rd[base + off] = lambda g, n=nr, o=off: g._read_slot(n, o)
        for off in (regs.JS_HEAD_NEXT_LO, regs.JS_HEAD_NEXT_HI,
                    regs.JS_AFFINITY_NEXT_LO, regs.JS_AFFINITY_NEXT_HI,
                    regs.JS_CONFIG_NEXT, regs.JS_FLUSH_ID_NEXT,
                    regs.JS_COMMAND_NEXT, regs.JS_COMMAND):
            wr[base + off] = (lambda g, v, n=nr, o=off:
                              g._write_slot(n, o, v))
    for nr in range(NUM_ADDRESS_SPACES):
        base = regs.AS_BASE + nr * regs.AS_STRIDE
        for off in (regs.AS_TRANSTAB_LO, regs.AS_TRANSTAB_HI,
                    regs.AS_MEMATTR_LO, regs.AS_MEMATTR_HI,
                    regs.AS_STATUS, regs.AS_FAULTSTATUS,
                    regs.AS_FAULTADDRESS_LO, regs.AS_FAULTADDRESS_HI,
                    regs.AS_TRANSCFG_LO, regs.AS_TRANSCFG_HI):
            rd[base + off] = lambda g, n=nr, o=off: g._read_as(n, o)
        for off in (regs.AS_TRANSTAB_LO, regs.AS_TRANSTAB_HI,
                    regs.AS_MEMATTR_LO, regs.AS_MEMATTR_HI,
                    regs.AS_LOCKADDR_LO, regs.AS_LOCKADDR_HI,
                    regs.AS_TRANSCFG_LO, regs.AS_TRANSCFG_HI,
                    regs.AS_COMMAND):
            wr[base + off] = (lambda g, v, n=nr, o=off:
                              g._write_as(n, o, v))
    return rd, wr


_READ_DISPATCH, _WRITE_DISPATCH = _build_dispatch()
