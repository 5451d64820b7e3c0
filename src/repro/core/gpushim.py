"""GPUShim: the client-TEE half of the recorder (§3.2).

Instantiated as a TEE module, GPUShim:

* isolates the GPU for the duration of a session (locks the MMIO region
  and GPU interrupts to the secure world, resets the GPU before and after);
* applies commit batches from the cloud to the physical GPU — executing
  reads, evaluating write expressions against this batch's read values,
  and returning the read environment;
* runs offloaded polling loops locally against the GPU (§4.3);
* installs pushed memory pages and collects post-job dumps (§5);
* forwards GPU interrupts to the cloud;
* keeps the authoritative interaction log — the ground truth of what the
  GPU experienced, which becomes the recording.

Fault injection (`corrupt_read_at`) supports §7.3's misprediction
experiment: it flips bits in the value returned by the Nth register read,
standing in for flaky hardware or a transmission error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.deferral import CommitRequest
from repro.core.recording import (
    Entry,
    IrqEntry,
    Marker,
    MemUpload,
    MemWrite,
    PollEntry,
    RegRead,
    RegWrite,
)
from repro.core.symbolic import evaluate_wire
from repro.driver.bus import LocalBus, PollSpec
from repro.tee.optee import OpTeeOS, TeeModule
from repro.tee.worlds import GpuMmioGuard, TrustZoneController, World


class GpuShim(TeeModule):
    name = "gpushim"

    def __init__(self, optee: OpTeeOS, gpu, clock, clk=None) -> None:
        super().__init__()
        self.optee = optee
        self.tzasc: TrustZoneController = optee.tzasc
        # All GPU access goes through a secure-world-tagged MMIO view.
        self.gpu = GpuMmioGuard(gpu, self.tzasc, World.SECURE)
        self.clock = clock
        # Optional SoC clock controller: pinned for determinism (§2.3/§6).
        self.clk = clk
        self.bus = LocalBus(self.gpu, clock)
        self.log: List[Entry] = []
        self.session_active = False
        self.reads_applied = 0
        self.writes_applied = 0
        self._pending_irqs: List[str] = []
        self._corrupt_at: Dict[int, int] = {}  # read index -> xor mask
        gpu.irq_sink = self._irq_raised
        self.register_command("begin", self.begin_session)
        self.register_command("end", self.end_session)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def begin_session(self) -> None:
        """Lock the GPU into the TEE and reset all hardware state."""
        if self.session_active:
            raise RuntimeError("GPUShim session already active")
        self.tzasc.lock_gpu_to_secure()
        if self.clk is not None:
            # Pin the GPU clock at max: DVFS reacting to measured timing
            # would make record nondeterministic (§2.3, §6).
            self.clk.pin_max()
        self.gpu.hard_reset_now()
        self._pending_irqs.clear()
        self.log = []
        self.session_active = True

    def end_session(self) -> None:
        """Reset the GPU and hand it back to the normal world (§3.2:
        "before and after the replay, it resets the GPU and cleans up all
        the hardware state")."""
        if not self.session_active:
            return
        self.gpu.hard_reset_now()
        if self.clk is not None:
            self.clk.unpin()
        self.tzasc.release_gpu()
        self.session_active = False

    def _require_session(self) -> None:
        if not self.session_active:
            raise RuntimeError("no active GPUShim session")

    # ------------------------------------------------------------------
    # Commit application
    # ------------------------------------------------------------------
    def apply_commit(self, request: CommitRequest) -> Dict[int, int]:
        """Execute a commit's ops in order; return {sym_id: value}."""
        self._require_session()
        env: Dict[int, int] = {}
        for op in request.ops:
            if op[0] == "r":
                _, offset, sym_id = op
                value = self.bus.read32(offset)
                mask = self._corrupt_at.pop(self.reads_applied, None)
                if mask is not None:
                    value ^= mask
                self.reads_applied += 1
                env[sym_id] = value
                self.log.append(RegRead(offset=offset, value=value))
            else:
                _, offset, wire = op
                value = evaluate_wire(wire, env) & 0xFFFF_FFFF
                self.bus.write32(offset, value)
                self.writes_applied += 1
                self.log.append(RegWrite(offset=offset, value=value))
        return env

    # ------------------------------------------------------------------
    # Offloaded polling loops (§4.3)
    # ------------------------------------------------------------------
    def execute_poll(self, spec: PollSpec):
        self._require_session()
        result = self.bus.poll(spec)
        self.log.append(PollEntry(
            offset=spec.offset, condition=spec.condition,
            operand=spec.operand, value=result.value,
            iterations=result.iterations))
        return result

    # ------------------------------------------------------------------
    # Memory synchronization hooks (§5)
    # ------------------------------------------------------------------
    def note_mem_write(self, pages: Dict[int, bytes]) -> None:
        self.log.append(MemWrite(pages=tuple(sorted(pages.items()))))

    def note_mem_upload(self, nbytes: int) -> None:
        self.log.append(MemUpload(nbytes=nbytes))

    def mark(self, label: str) -> None:
        """Segment boundary (one per NN layer, Figure 2)."""
        self.log.append(Marker(label=label))

    # ------------------------------------------------------------------
    # Interrupt forwarding
    # ------------------------------------------------------------------
    def _irq_raised(self, line: str) -> None:
        if self.tzasc.gpu_irq_routed_to != World.SECURE:
            return  # normal-world IRQ: not ours
        self._pending_irqs.append(line)

    def take_pending_irq(self) -> Optional[str]:
        """Next IRQ line to forward, if the GPU has one pending."""
        self._require_session()
        line = self.gpu.any_irq_pending()
        if line is not None:
            self.log.append(IrqEntry(line=line))
        return line

    # ------------------------------------------------------------------
    # Fault injection for the misprediction experiment (§7.3)
    # ------------------------------------------------------------------
    def corrupt_read_at(self, read_index: int, xor_mask: int = 0xDEAD) -> None:
        self._corrupt_at[read_index] = xor_mask

    # ------------------------------------------------------------------
    def log_position(self) -> int:
        return len(self.log)
