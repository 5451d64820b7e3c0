"""Record-session orchestration and the four evaluated recorders.

A :class:`RecordSession` wires the whole GR-T architecture together for
one (client, workload) pair:

client TEE side                      cloud side
---------------                      ----------
TZASC + OP-TEE + GPUShim      <----> CloudService -> VM (device tree,
MaliGpu + client memory        link   GPU stack: driver + runtime + ML
                                      framework) on DriverShim + memsync

and runs the workflow of §3.1: attest, establish a secure channel, boot
the dedicated VM, dry-run the workload with zero-filled data, download the
signed recording.

The recorder variants of §7.2 are :data:`NAIVE`, :data:`OURS_M`,
:data:`OURS_MD` and :data:`OURS_MDS`.  Misprediction recovery (§4.2) is
driven from here: on :class:`MispredictionDetected` the session reboots
the VM (driver reload + shader recompilation, the dominant rollback cost
the paper measures) and re-runs with the validated log prefix as a
fast-forward feed while the client replays the same prefix locally.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.specsan import SpecSan

import numpy as np

from repro.cloud.service import CloudService
from repro.core.drivershim import CloudPlatform, DriverShim, FastForwardFeed, ShimModes
from repro.core.gpushim import GpuShim
from repro.core.memsync import MemorySynchronizer, MemSyncStats, SyncPolicy
from repro.core.recording import Recording
from repro.core.replayer import replay_entries
from repro.core.speculation import (
    CommitHistory,
    MispredictionDetected,
    SpeculationStats,
)
from repro.driver.driver import KbaseDevice
from repro.hw.clocks import SocClockController
from repro.hw.gpu import MaliGpu
from repro.hw.memory import PhysicalMemory
from repro.hw.sku import GpuSku, HIKEY960_G71
from repro.kernel.devicetree import board_device_tree
from repro.kernel.env import KernelEnv
from repro.ml.graph import Graph
from repro.ml.models import build_model
from repro.ml.runner import WorkloadRunner, required_memory_bytes
from repro.obs.metrics import StatsBase
from repro.resilience.channel import ChannelDisconnected, ReliableChannel
from repro.resilience.checkpoint import SessionCheckpointer
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.runtime.api import GpuContext
from repro.runtime.flavors import flavor_for_image
from repro.sim.clock import VirtualClock
from repro.sim.energy import EnergyMeter
from repro.sim.network import (
    WIFI,
    Link,
    LinkProfile,
    Message,
    NetworkStats,
    SecureChannel,
)
from repro.tee.attestation import AttestationVerifier
from repro.tee.optee import OpTeeOS


@dataclass(frozen=True)
class RecorderConfig:
    """One recorder variant: which techniques are enabled."""

    name: str
    meta_only_sync: bool
    defer: bool
    speculate: bool
    offload_polls: bool
    compress: bool
    spec_window: int = 3

    @property
    def sync_policy(self) -> str:
        return SyncPolicy.META_ONLY if self.meta_only_sync else SyncPolicy.FULL

    def modes(self) -> ShimModes:
        return ShimModes(defer=self.defer, speculate=self.speculate,
                         offload_polls=self.offload_polls)


NAIVE = RecorderConfig("Naive", meta_only_sync=False, defer=False,
                       speculate=False, offload_polls=False, compress=False)
OURS_M = RecorderConfig("OursM", meta_only_sync=True, defer=False,
                        speculate=False, offload_polls=False, compress=True)
OURS_MD = RecorderConfig("OursMD", meta_only_sync=True, defer=True,
                         speculate=False, offload_polls=False, compress=True)
OURS_MDS = RecorderConfig("OursMDS", meta_only_sync=True, defer=True,
                          speculate=True, offload_polls=True, compress=True)

RECORDER_VARIANTS = (NAIVE, OURS_M, OURS_MD, OURS_MDS)


@dataclass
class RecordStats(StatsBase):
    """Everything §7 reports about one record run."""

    SCHEMA = "repro.record"
    _NESTED = {"commits": SpeculationStats, "memsync": MemSyncStats}
    _IDENTITY = ("seed",)

    workload: str
    recorder: str
    link: str
    seed: int = 0  # the dry run is a pure function of (workload, seed)
    recording_delay_s: float = 0.0
    blocking_rtts: int = 0
    reg_accesses: int = 0
    client_reads_applied: int = 0
    gpu_jobs: int = 0
    commits: Optional[SpeculationStats] = None
    memsync: Optional[MemSyncStats] = None
    network_bytes: int = 0
    recording_bytes: int = 0
    # Content digest of the produced recording (sha256 hex of the
    # unsigned body) — the fleet registry's compiled-cache key.
    recording_digest: str = ""
    client_energy_j: float = 0.0
    timeout_violations: int = 0
    recoveries: int = 0
    recovery_delay_s: float = 0.0
    vm_seconds: float = 0.0
    timeline_by_label: Dict[str, float] = field(default_factory=dict)
    # Resilience (repro.resilience): zero / None on a perfect link.
    fault_plan: Optional[str] = None
    resumes: int = 0
    checkpoints: int = 0
    net_retries: int = 0
    net_timeouts: int = 0
    redundant_bytes: int = 0

    @property
    def accesses_per_commit(self) -> float:
        if self.commits is None or self.commits.commits_total == 0:
            return 0.0
        return self.reg_accesses / self.commits.commits_total


@dataclass
class RecordResult:
    recording: Recording
    stats: RecordStats
    output: np.ndarray  # dry-run output (garbage; proves the jobs ran)
    # The cloud's recording-signature verify key, so a result can be fed
    # straight to repro.replay() without plumbing the service around.
    verify_key: Optional[object] = None


class InsufficientSecureMemory(MemoryError):
    """§3.1: recording needs as much TEE memory as the workload's actual
    run; the pre-configured secure carveout is too small."""


class RecordSession:
    """One client TEE recording one workload through one cloud session."""

    def __init__(self, workload: Union[str, Graph],
                 config: RecorderConfig = OURS_MDS,
                 sku: GpuSku = HIKEY960_G71,
                 link_profile: LinkProfile = WIFI,
                 seed: int = 0,
                 history: Optional[CommitHistory] = None,
                 service: Optional[CloudService] = None,
                 client_id: str = "client-0",
                 max_recovery_attempts: int = 3,
                 secure_mem_limit: Optional[int] = None,
                 image: Optional[str] = None,
                 sanitizer: Optional["SpecSan"] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 max_resume_attempts: int = 8,
                 checkpointer: Optional[SessionCheckpointer] = None,
                 tracer=None) -> None:
        self.graph = build_model(workload) if isinstance(workload, str) \
            else workload
        self.config = config
        self.sku = sku
        self.link_profile = link_profile
        self.seed = seed
        self.history = history if history is not None \
            else CommitHistory(config.spec_window)
        self.service = service or CloudService()
        self.client_id = client_id
        self.max_recovery_attempts = max_recovery_attempts
        # Which GPU-stack variant the cloud should dry-run (§3.1); None
        # lets the service pick by driver family.
        self.image = image
        # Optional runtime invariant sanitizer (repro.check.SpecSan);
        # re-installed on every attempt since each builds a fresh env/shim.
        self.sanitizer = sanitizer
        # Optional WAN fault injection (repro.resilience).  The injector
        # persists across attempts: a resumed session continues the fault
        # schedule rather than restarting it.
        self.fault_plan = fault_plan
        self._injector = (FaultInjector(fault_plan)
                          if fault_plan is not None else None)
        self.max_resume_attempts = max_resume_attempts
        self.checkpointer = checkpointer
        if self.checkpointer is None and fault_plan is not None:
            self.checkpointer = SessionCheckpointer()
        if self.checkpointer is not None and sanitizer is not None:
            self.checkpointer.sanitizer = sanitizer
        # Optional repro.obs.Tracer threaded through the shim, memsync
        # and history; None keeps every hook on the fast path.
        self.tracer = tracer
        self._mem_size = required_memory_bytes(self.graph)
        if secure_mem_limit is not None and self._mem_size > secure_mem_limit:
            raise InsufficientSecureMemory(
                f"workload {self.graph.name!r} needs "
                f"{self._mem_size >> 20} MiB of secure memory; the TEE "
                f"carveout is {secure_mem_limit >> 20} MiB — the SoC "
                f"firmware must enlarge it (§3.1)")
        self._inject_read_faults: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def inject_fault_at_read(self, read_index: int,
                             xor_mask: int = 0xDEAD) -> None:
        """Corrupt the value of the Nth client register read on the first
        attempt — §7.3's misprediction experiment."""
        self._inject_read_faults.append((read_index, xor_mask))

    # ------------------------------------------------------------------
    def run(self) -> RecordResult:
        clock = VirtualClock()
        tracer = self.tracer
        if tracer is not None:
            tracer.set_clock(clock)
            tracer.begin("record", cat="session",
                         args={"workload": self.graph.name,
                               "recorder": self.config.name,
                               "link": self.link_profile.name})
        try:
            return self._run(clock)
        finally:
            if tracer is not None:
                tracer.end()

    def _run(self, clock: VirtualClock) -> RecordResult:
        tracer = self.tracer
        prefix = None
        recoveries = 0
        self._resumes = 0
        self._vm_seconds = 0.0
        self._net_carry = NetworkStats()
        base_depth = tracer.depth() if tracer is not None else 0
        while True:
            first_attempt = recoveries == 0 and self._resumes == 0
            try:
                return self._attempt(clock, prefix, recoveries,
                                     inject=first_attempt)
            except MispredictionDetected as exc:
                recoveries += 1
                if tracer is not None:
                    tracer.unwind_to(base_depth)
                    tracer.event(
                        "misprediction-recovery", cat="speculation",
                        args={"recoveries": recoveries,
                              "safe_log_position": exc.safe_log_position})
                if recoveries > self.max_recovery_attempts:
                    raise
                # Both sides roll back to the last validated log position
                # and fast-forward independently (§4.2).
                prefix = self._last_log[:exc.safe_log_position]
            except ChannelDisconnected as exc:
                self._resumes += 1
                if tracer is not None:
                    tracer.unwind_to(base_depth)
                    tracer.event(
                        "disconnect-resume", cat="resilience",
                        args={"resumes": self._resumes,
                              "resume_at_s": exc.resume_at_s})
                if self._resumes > self.max_resume_attempts:
                    raise
                # The VM is gone (the finally-close in _attempt destroyed
                # it); the aborted attempt's traffic still counts.
                self._net_carry = self._net_carry.merged_with(
                    self._attempt_net)
                if exc.resume_at_s > clock.now:
                    clock.advance_to(exc.resume_at_s, label="disconnect")
                # Resume from the last checkpoint on a fresh VM: replay
                # the verified prefix (the misprediction machinery, §4.2)
                # and restore the speculation history the dead VM held.
                prefix = self.checkpointer.resume_prefix() \
                    if self.checkpointer is not None else []
                checkpoint = (self.checkpointer.latest()
                              if self.checkpointer is not None else None)
                if checkpoint is not None:
                    self.history.restore(checkpoint.history)

    # ------------------------------------------------------------------
    def _attempt(self, clock: VirtualClock, prefix, recoveries: int,
                 inject: bool) -> RecordResult:
        client_mem = PhysicalMemory(size=self._mem_size)
        cloud_mem = PhysicalMemory(size=self._mem_size)
        try:
            return self._attempt_on(client_mem, cloud_mem, clock, prefix,
                                    recoveries, inject)
        finally:
            # The attempt's objects (shim callbacks, the metastate
            # provider, segment markers) reference each other in cycles
            # that only the cyclic GC reclaims; free both zero-filled
            # stores as soon as the attempt ends instead.
            client_mem.release()
            cloud_mem.release()

    def _attempt_on(self, client_mem: PhysicalMemory,
                    cloud_mem: PhysicalMemory, clock: VirtualClock, prefix,
                    recoveries: int, inject: bool) -> RecordResult:
        attempt_start = clock.now
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("attempt", cat="session",
                         args={"recoveries": recoveries,
                               "resumes": self._resumes})
        # --- client side -------------------------------------------------
        optee = OpTeeOS()
        optee.tzasc.static_reserve(client_mem.base, client_mem.size)
        gpu = MaliGpu(self.sku, client_mem, clock)
        clk = SocClockController(gpu, optee.tzasc)
        gpushim = GpuShim(optee, gpu, clock, clk=clk)
        optee.load_module(gpushim)
        for index, mask in (self._inject_read_faults if inject else []):
            gpushim.corrupt_read_at(index, mask)

        # --- open the cloud session (attested) ---------------------------
        device_tree = board_device_tree(self.sku)
        nonce = hashlib.sha256(
            f"{self.client_id}:{clock.now}:{recoveries}".encode()).digest()
        compatible = device_tree.find(f"gpu@{0xE82C0000:x}").compatible
        image_name = self.image or self.service.image_for_family(compatible)
        ticket = self.service.open_session(self.client_id, image_name,
                                           device_tree, nonce, clock=clock)
        vm_open_time = clock.now
        verifier = AttestationVerifier(self.service.root.key)
        verifier.allow_image(ticket.vm.image.measurement_blob())
        verifier.verify(ticket.attestation, nonce)

        link = Link(self.link_profile, clock)
        if self._injector is not None:
            # Reliable channel over the faulty link: every fault-induced
            # delay is charged while GPUShim clock-gates the GPU
            # (gpu.shift_events), so the recording stays byte-identical
            # to a fault-free run.
            link = ReliableChannel(link, self._injector,
                                   hold=gpu.shift_events,
                                   tracer=self.tracer)
        self._attempt_net = link.stats
        channel = SecureChannel(link)
        channel.establish(ticket.session_id, attested=True)
        ticket.vm.boot(clock)

        # --- cloud side ---------------------------------------------------
        memsync = MemorySynchronizer(cloud_mem, client_mem,
                                     policy=self.config.sync_policy,
                                     compress_enabled=self.config.compress)
        shim = DriverShim(link, gpushim, memsync, self.config.modes(),
                          history=self.history, tracer=self.tracer)
        memsync.tracer = self.tracer
        self.history.tracer = self.tracer
        shim.checkpointer = self.checkpointer
        env = KernelEnv(clock, name="cloud-vm")
        shim.attach(env)
        if self.sanitizer is not None:
            self.sanitizer.install(env, shim)
        platform = CloudPlatform(gpushim, shim, link)
        env.platform = platform

        gpushim.begin_session()
        memsync.prime_client_baseline()

        kbdev = KbaseDevice(env, shim, cloud_mem)
        platform.attach(kbdev)

        if prefix:
            shim.feed = FastForwardFeed(list(prefix))
            # The client independently replays the recorded stimuli onto
            # its reset GPU — no network involved (§4.2).
            replay_entries(gpushim.gpu, client_mem, clock, prefix,
                           skip_pfns=())
            gpushim.log = list(prefix)
            shim.last_validated_position = len(prefix)
            memsync.prime_client_baseline()

        try:
            kbdev.probe()
            ctx = GpuContext(kbdev, cloud_mem,
                             flavor=flavor_for_image(image_name))
            runner = WorkloadRunner(ctx, self.graph, seed=self.seed)
            shim.metastate_provider = lambda: (
                set(ctx.aspace.metastate_pfns())
                | kbdev.mmu_tables.metastate_pfns())
            self._zero_fill(runner, cloud_mem)
            self._last_log = gpushim.log  # live reference for recovery
            # Segment markers are suppressed while fast-forwarding: the
            # recovered prefix already contains them.
            def _node_callback(i, name):
                if shim.ff_active:
                    return None
                if tracer is not None:
                    tracer.event(name, cat="segment", args={"index": i})
                return gpushim.mark(name)

            output = runner.run(input_array=None,
                                node_callback=_node_callback)
            kbdev.teardown()
            shim.finish()
        except MispredictionDetected:
            self._last_log = gpushim.log
            raise
        except ChannelDisconnected as exc:
            self._last_log = gpushim.log
            exc.safe_log_position = shim.last_validated_position
            raise
        finally:
            self.service.close_session(ticket.session_id, clock=clock)
            self._vm_seconds += clock.now - vm_open_time

        # --- recording assembly + download --------------------------------
        recording = Recording(
            workload=self.graph.name,
            recorder=self.config.name,
            sku_fingerprint=self.sku.fingerprint(),
            manifest=runner.manifest,
            data_pfns=tuple(sorted(set(ctx.aspace.data_pfns()))),
            entries=list(gpushim.log),
        )
        body = recording.body_bytes()
        recording.signature = self.service.sign_recording(body)
        blob_len = len(body) + 32
        link.send_to_client(Message("recording-download", blob_len),
                            blocking=True)
        if tracer is not None:
            tracer.event("recording-download", cat="network",
                         args={"bytes": blob_len})
        gpushim.end_session()

        # --- statistics ----------------------------------------------------
        meter = EnergyMeter()
        # Aborted attempts' traffic (disconnect resumes) still counts.
        net = link.stats.merged_with(self._net_carry)
        stats = RecordStats(
            workload=self.graph.name,
            recorder=self.config.name,
            link=self.link_profile.name,
            seed=self.seed,
            recording_delay_s=clock.now,
            blocking_rtts=(net.blocking_round_trips
                           + shim.stats.validation_stalls),
            reg_accesses=shim.reg_accesses,
            client_reads_applied=gpushim.reads_applied,
            gpu_jobs=runner.manifest.total_jobs,
            commits=shim.stats,
            memsync=memsync.stats,
            network_bytes=net.total_bytes,
            recording_bytes=blob_len,
            recording_digest=recording.digest(),
            client_energy_j=meter.record_energy_j(clock.timeline, net),
            timeout_violations=(kbdev.jobs.timeout_violations
                                + kbdev.timing_violations),
            recoveries=recoveries,
            recovery_delay_s=(clock.now - attempt_start) if recoveries else 0.0,
            vm_seconds=self._vm_seconds,
            timeline_by_label=clock.timeline.by_label(),
            fault_plan=(self.fault_plan.name
                        if self.fault_plan is not None else None),
            resumes=self._resumes,
            checkpoints=(self.checkpointer.captures
                         if self.checkpointer is not None else 0),
            net_retries=net.retries,
            net_timeouts=net.timeouts,
            redundant_bytes=net.redundant_bytes,
        )
        if tracer is not None:
            tracer.end(args={"delay_s": clock.now - attempt_start})
        return RecordResult(recording=recording, stats=stats, output=output,
                            verify_key=self.service.recording_key)

    # ------------------------------------------------------------------
    @staticmethod
    def _zero_fill(runner: WorkloadRunner, mem: PhysicalMemory) -> None:
        """§5: the dry run fills the workload's inputs and parameters with
        zeros.  The writes still happen (as a real framework's weight
        upload would), so Naive's full sync pays for them while meta-only
        sync ignores them."""
        for binding in runner.manifest.bindings:
            if binding.kind in ("input", "weight", "bias"):
                mem.fill(binding.pa, binding.size, 0)
