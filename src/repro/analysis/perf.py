"""Wall-clock performance harness for the replay and memsync hot paths.

Everything else in this repository measures *simulated* time on the
virtual clock; this module is the one place that measures real elapsed
seconds, to keep the compiled-recording fast path honest:

* **replay** — the same recording replayed by the legacy per-entry
  interpreter (``Replayer(engine="legacy")``) and by the columnar
  compiled program (``engine="compiled"``), interleaved rep-for-rep so
  machine noise hits both engines equally.  The two engines must agree bit-for-bit (outputs, virtual
  delay, replay statistics) before any number is reported.
* **mmu** — one record run's page-table traffic (the driver's inserts
  and unmaps, the GPU's buffer translations and TLB flushes) replayed
  through the range-granular :class:`~repro.hw.mmu.GpuMmu` /
  :class:`~repro.driver.mmu_driver.MmuTables` and through the per-page
  reference kept with the tests (``tests/mmu_reference.py``).  Both
  must produce identical page-table bytes and translations.
* **memsync encode** — the recording's own §5 sync traffic replayed
  through the current :class:`~repro.core.memsync.MemorySynchronizer`
  and through a faithful reproduction of the seed encode path (one
  ``best_encode`` per page that RLE-encodes both the raw page and the
  delta, and no unchanged-page skip).  Steady-state epochs re-dirty the
  same frames with mostly identical content — the regime the skip
  optimization targets — with a deterministic mutated fraction modeling
  counters and ring buffers.

The harness emits a machine-readable ``BENCH_replay.json`` document; the
``repro perf`` command drives it and the CI ``perf-smoke`` job gates on
a checked-in baseline.  Wall-clock variance on shared machines is large
(±15% routinely), so reported ratios use interleaved medians and bests,
and cold-start work (first sync epoch, first replay run, compile) is
timed separately rather than folded into steady-state throughput.
"""
# repro-check: module-allow[determinism] -- wall-clock benchmarking is
# this module's purpose; measured times never feed the virtual clock or
# any recording artifact.

from __future__ import annotations

import importlib.util
import json
import math
import platform
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import compress
from repro.core.memsync import MemorySynchronizer, SyncPolicy
from repro.core.recorder import NAIVE, OURS_MDS, RecordSession
from repro.core.recording import MemWrite, Recording
from repro.core.replayer import Replayer
from repro.core.testbed import ClientDevice
from repro.driver.mmu_driver import MmuMapError, MmuTables
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.mmu import GpuMmu, GpuPageFault
from repro.ml.models import build_model
from repro.ml.runner import generate_weights

BENCH_SCHEMA = 1
BENCH_FILENAME = "BENCH_replay.json"
BENCH_SERVE_FILENAME = "BENCH_serve.json"


# ----------------------------------------------------------------------
# Replay: legacy per-entry interpreter vs columnar compiled program
# ----------------------------------------------------------------------
def _make_session(graph, recording: Recording, weights, verify_key,
                  engine: str = "auto"):
    """A fresh device + replay session pinned to one engine."""
    device = ClientDevice.for_workload(graph)
    replayer = Replayer(device.optee, device.gpu, device.mem,
                        device.clock, verify_key=verify_key,
                        engine=engine)
    return replayer.open(recording, weights)


def bench_replay(workload: str = "alexnet", recorder=NAIVE,
                 reps: int = 5, warmup: int = 1,
                 recording: Optional[Recording] = None,
                 verify_key=None) -> Dict:
    """Interleaved legacy-vs-compiled replay timing for one workload."""
    graph = build_model(workload)
    if recording is None:
        session = RecordSession(graph, config=recorder)
        recording = session.run().recording
        verify_key = session.service.recording_key
    digest_before = recording.digest()
    weights = generate_weights(graph, seed=0)
    inp = np.zeros(graph.input_shape, dtype=np.float32)
    entries = len(recording.entries)

    legacy = _make_session(graph, recording, weights, verify_key,
                           engine="legacy")
    t0 = time.perf_counter()
    recording.compile()  # lowered once, cached on the recording
    compile_s = time.perf_counter() - t0
    compiled = _make_session(graph, recording, weights, verify_key,
                             engine="compiled")

    # Equivalence gate: the engines must agree before timing means
    # anything.  Outputs and virtual delay are compared bitwise.
    t0 = time.perf_counter()
    out_c = compiled.run(inp)
    first_compiled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    out_l = legacy.run(inp)
    first_legacy_s = time.perf_counter() - t0
    identical = {
        "output": bool(np.array_equal(out_l.output, out_c.output)),
        "delay": bool(out_l.delay_s == out_c.delay_s),
        "stats": bool(out_l.stats == out_c.stats),
        "energy": bool(math.isclose(out_l.energy_j, out_c.energy_j,
                                    rel_tol=1e-9)),
        "recording_digest": bool(recording.digest() == digest_before),
    }

    for _ in range(max(0, warmup - 1)):
        legacy.run(inp)
        compiled.run(inp)
    legacy_s: List[float] = []
    compiled_s: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        legacy.run(inp)
        legacy_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        compiled.run(inp)
        compiled_s.append(time.perf_counter() - t0)

    med_l = statistics.median(legacy_s)
    med_c = statistics.median(compiled_s)
    best_l = min(legacy_s)
    best_c = min(compiled_s)
    return {
        "workload": workload,
        "recorder": recorder.name,
        "entries": entries,
        "reps": reps,
        "warmup": warmup,
        "legacy": {
            "median_s": med_l,
            "best_s": best_l,
            "first_run_s": first_legacy_s,
            "entries_per_s": entries / med_l,
        },
        "compiled": {
            "median_s": med_c,
            "best_s": best_c,
            "first_run_s": first_compiled_s,
            "compile_s": compile_s,
            "entries_per_s": entries / med_c,
        },
        "speedup_median": med_l / med_c,
        "speedup_best": best_l / best_c,
        "identical": identical,
    }


# ----------------------------------------------------------------------
# MMU: range-granular walk and PTE writes vs the per-page reference
# ----------------------------------------------------------------------
#: Memory for the replayed page tables (mapped PAs are only numbers to
#: the MMU; only table pages are ever written).
_MMU_BENCH_MEM = 64 << 20


def _load_mmu_reference():
    """The per-page reference MMU kept with the tests, loaded from the
    source checkout's ``tests/mmu_reference.py``; None without one."""
    path = Path(__file__).resolve().parents[3] / "tests" / "mmu_reference.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("repro_mmu_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def _logging_calls(owner, name: str, tag: str, log: List[Tuple]):
    """Append ``(tag, *args)`` to ``log`` for every ``owner.name`` call
    while the block runs."""
    raw = owner.__dict__[name]

    def logged(self, *args):
        log.append((tag, *args))
        return raw(self, *args)

    setattr(owner, name, logged)
    try:
        yield
    finally:
        setattr(owner, name, raw)


def _capture_mmu_traffic(workload: str, recorder) -> List[Tuple]:
    """One record run's page-table traffic, in program order: driver
    ``insert``/``unmap`` calls, GPU ``translate`` calls (buffer ranges)
    and TLB ``flush``es."""
    log: List[Tuple] = []
    with _logging_calls(MmuTables, "insert_pages", "insert", log), \
            _logging_calls(MmuTables, "unmap_pages", "unmap", log), \
            _logging_calls(GpuMmu, "translate_contiguous", "translate", log), \
            _logging_calls(GpuMmu, "flush_tlb", "flush", log):
        RecordSession(build_model(workload), config=recorder).run()
    return log


def _replay_mmu_traffic(traffic: List[Tuple], tables_cls, mmu_cls):
    """Apply ``traffic`` to fresh tables and MMU; returns (per-kind wall
    seconds, outcome list, table pages)."""
    mem = PhysicalMemory(size=_MMU_BENCH_MEM)
    tables = tables_cls(mem, pte_format=1)
    mmu = mmu_cls(mem, pte_format=1)
    mmu.configure(tables.root_pa)
    calls = {"insert": tables.insert_pages, "unmap": tables.unmap_pages,
             "translate": mmu.translate_contiguous, "flush": mmu.flush_tlb}
    spent = {"insert": 0.0, "translate": 0.0}
    outcomes = []
    for tag, *args in traffic:
        fn = calls[tag]
        t0 = time.perf_counter()
        try:
            outcome = fn(*args)
        except (GpuPageFault, MmuMapError) as exc:
            outcome = repr(exc)
        elapsed = time.perf_counter() - t0
        outcomes.append(outcome)
        if tag != "flush":
            spent["translate" if tag == "translate" else "insert"] += elapsed
    table_bytes = {pfn: mem.page_bytes(pfn) for pfn in tables.table_pfns}
    return spent, outcomes, table_bytes


def bench_mmu(workload: str = "alexnet", recorder=OURS_MDS,
              reps: int = 5) -> Dict:
    """Range-granular MMU vs the per-page reference on one record run's
    page-table traffic, interleaved rep-for-rep."""
    reference = _load_mmu_reference()
    if reference is None:
        return {"workload": workload, "recorder": recorder.name,
                "skipped": "no tests/mmu_reference.py beside the package"}
    traffic = _capture_mmu_traffic(workload, recorder)
    sides = {"range": (MmuTables, GpuMmu),
             "per_page": (reference.ReferenceTables, reference.ReferenceMmu)}
    times: Dict[str, List[Dict[str, float]]] = {k: [] for k in sides}
    results = {}
    for _ in range(reps):
        for side, (tables_cls, mmu_cls) in sides.items():
            spent, outcomes, table_bytes = _replay_mmu_traffic(
                traffic, tables_cls, mmu_cls)
            times[side].append(spent)
            results[side] = (outcomes, table_bytes)

    def summary(side: str) -> Dict[str, float]:
        runs = times[side]
        return {
            "insert_s": statistics.median(r["insert"] for r in runs),
            "translate_s": statistics.median(r["translate"] for r in runs),
            "median_s": statistics.median(
                r["insert"] + r["translate"] for r in runs),
        }

    fast, slow = summary("range"), summary("per_page")
    inserts = [op for op in traffic if op[0] == "insert"]
    return {
        "workload": workload,
        "recorder": recorder.name,
        "reps": reps,
        "inserts": len(inserts),
        "translations": sum(op[0] == "translate" for op in traffic),
        "pages_mapped": sum(-(-nbytes // PAGE_SIZE)
                            for _, _, _, nbytes, _ in inserts),
        "range": fast,
        "per_page": slow,
        "speedup": slow["median_s"] / fast["median_s"],
        "tables_identical": results["range"][1] == results["per_page"][1],
        "translations_identical": results["range"][0] == results["per_page"][0],
    }


# ----------------------------------------------------------------------
# Memsync: seed double-encode path vs single-encode + skip
# ----------------------------------------------------------------------
class _SeedSynchronizer(MemorySynchronizer):
    """The pre-optimization §5 encode path, reproduced faithfully.

    The seed's ``_wire_size`` called ``best_encode`` per page, which
    always RLE-encoded *both* the raw page and the delta and threw one
    away, and no dirty page was ever skipped however unchanged its
    bytes.  Kept here (not in :mod:`repro.core.memsync`) so the product
    code carries no dead slow path.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seed_view: Dict[int, bytes] = {}

    def _encode_pages(self, mem: PhysicalMemory, pfns: List[int]
                      ) -> Tuple[Dict[int, bytes], int, int]:
        pages: Dict[int, bytes] = {}
        wire = 0
        view = self._seed_view
        for pfn in pfns:
            raw = mem.page_bytes(pfn)
            if self.compress_enabled:
                prev = view.get(pfn)
                raw_blob = compress.encode(raw)
                if prev is not None:
                    delta = bytes(np.bitwise_xor(
                        np.frombuffer(raw, dtype=np.uint8),
                        np.frombuffer(prev, dtype=np.uint8)))
                    blob = min((compress.encode(delta), raw_blob), key=len)
                else:
                    blob = raw_blob
                wire += len(blob)
                self.stats.encodes += 1
            else:
                wire += len(raw)
            view[pfn] = raw
            pages[pfn] = raw
        return pages, wire, 0

    def final_view(self) -> Dict[int, bytes]:
        return dict(self._seed_view)


def _sync_stream(recording: Recording) -> List[Tuple]:
    """The recording's §5 sync points: each MemWrite's (pfn, bytes)."""
    return [entry.pages for entry in recording.entries
            if isinstance(entry, MemWrite)]


def _drive_sync(make_sync, stream, pfns: List[int], span: int, epochs: int,
                mutate_every: int):
    """Replay ``stream`` for ``epochs`` epochs, timing push() only.

    Epoch 0 is cold start (every page is first contact for both paths)
    and excluded from steady-state time.  From epoch 1 on, one page in
    ``mutate_every`` per sync point gets a flipped byte — the counters/
    ring-buffers share of real re-dirty traffic; the rest are re-written
    with identical bytes.
    """
    cloud = PhysicalMemory(size=span + PAGE_SIZE)
    client = PhysicalMemory(size=span + PAGE_SIZE)
    # Densify the recording's frame numbers into one carveout so both
    # paths see the contiguous layout a real allocator produces.
    base = cloud.alloc(span, "sync-bench").base >> 12
    remap = {pfn: base + i for i, pfn in enumerate(pfns)}
    sync = make_sync(cloud, client)
    cloud.take_dirty()
    steady_s = 0.0
    steady_pages = 0
    wire_total = 0
    for epoch in range(epochs):
        for pages in stream:
            for j, (pfn, raw) in enumerate(pages):
                if epoch and j % mutate_every == (epoch % mutate_every):
                    mutated = bytearray(raw)
                    mutated[0] ^= epoch & 0xFF
                    raw = bytes(mutated)
                cloud.write_page(remap[pfn], raw)
            t0 = time.perf_counter()
            _, wire = sync.push(metastate_pfns=set())
            elapsed = time.perf_counter() - t0
            sync.pull(metastate_pfns=set())
            wire_total += wire
            if epoch:
                steady_s += elapsed
                steady_pages += len(pages)
    return sync, steady_s, steady_pages, wire_total


def bench_memsync(workload: str = "alexnet", recorder=NAIVE,
                  epochs: int = 6, mutate_every: int = 16,
                  recording: Optional[Recording] = None) -> Dict:
    """Steady-state §5 encode throughput, optimized vs seed path."""
    if recording is None:
        graph = build_model(workload)
        recording = RecordSession(graph, config=recorder).run().recording
    stream = _sync_stream(recording)
    pfns = sorted({pfn for pages in stream for pfn, _ in pages})
    span = (len(pfns) + 64) * PAGE_SIZE

    new_sync, new_s, pages_n, new_wire = _drive_sync(
        lambda c, cl: MemorySynchronizer(c, cl, SyncPolicy.FULL),
        stream, pfns, span, epochs, mutate_every)
    seed_sync, seed_s, _, seed_wire = _drive_sync(
        lambda c, cl: _SeedSynchronizer(c, cl, SyncPolicy.FULL),
        stream, pfns, span, epochs, mutate_every)

    # Semantic gate: both paths must leave the peer holding the same
    # bytes for every frame.
    seed_view = seed_sync.final_view()
    views_equal = (set(seed_view) == set(new_sync.peer_pfns())
                   and all(new_sync.peer_page(pfn) == raw
                           for pfn, raw in seed_view.items()))
    return {
        "workload": recording.workload,
        "recorder": recording.recorder,
        "sync_points_per_epoch": len(stream),
        "distinct_pages": len(pfns),
        "epochs": epochs,
        "mutate_every": mutate_every,
        "steady_pages": pages_n,
        "legacy": {
            "steady_s": seed_s,
            "pages_per_s": pages_n / seed_s if seed_s else 0.0,
            "wire_bytes": seed_wire,
            "encodes": seed_sync.stats.encodes,
        },
        "optimized": {
            "steady_s": new_s,
            "pages_per_s": pages_n / new_s if new_s else 0.0,
            "wire_bytes": new_wire,
            "encodes": new_sync.stats.encodes,
            "pages_skipped": new_sync.stats.pages_skipped,
        },
        "speedup": (seed_s / new_s) if new_s else 0.0,
        "peer_views_equal": bool(views_equal),
    }


# ----------------------------------------------------------------------
# Cold start: compile+publish vs memory hit vs store hit
# ----------------------------------------------------------------------
def bench_cold_start(workload: str = "alexnet", recorder=NAIVE,
                     reps: int = 3,
                     recording: Optional[Recording] = None,
                     verify_key=None,
                     store_root: Optional[str] = None) -> Dict:
    """First-request cost with and without the on-disk artifact store.

    Three acquisition regimes for the same recording, timed per rep:

    * **cold** — empty store: ``compiled_for`` lowers the recording and
      publishes the artifact (what a brand-new deployment pays);
    * **warm** — same registry again: in-memory second lookup;
    * **store_hit** — a *fresh* registry over the now-populated store
      (a restarted process): the artifact is opened (``np.memmap``,
      integrity re-checked), not recompiled.

    ``acquire_s`` isolates the acquisition step itself;
    ``first_request_s`` is the end-to-end session-open + first
    inference around it (dominated by shared per-session work, so its
    ratio is structurally much smaller).  The store-hit output must be
    bit-identical to the cold compile's, and a cross-tenant open of the
    published artifact must be rejected — both are gated, not just
    reported.
    """
    import shutil
    import tempfile

    from repro.core.compiled import from_artifact
    from repro.fleet.registry import RecordingRegistry, TenantIsolationError
    from repro.store import DiskStore

    graph = build_model(workload)
    if recording is None:
        session = RecordSession(graph, config=recorder)
        recording = session.run().recording
        verify_key = session.service.recording_key
    digest = recording.digest()
    weights = generate_weights(graph, seed=0)
    inp = np.zeros(graph.input_shape, dtype=np.float32)

    def first_request(registry) -> Tuple[float, object]:
        device = ClientDevice.for_workload(graph)
        replayer = Replayer(device.optee, device.gpu, device.mem,
                            device.clock, verify_key=verify_key,
                            engine="compiled", compiled_cache=registry)
        t0 = time.perf_counter()
        out = replayer.open(recording, weights).run(inp)
        return time.perf_counter() - t0, out

    if store_root:
        import os
        os.makedirs(store_root, exist_ok=True)
    cold_acquire: List[float] = []
    warm_acquire: List[float] = []
    hit_acquire: List[float] = []
    cold_first: List[float] = []
    hit_first: List[float] = []
    out_cold = out_hit = None
    artifact_bytes = 0
    store = None
    for _ in range(reps):
        # Fresh roots per rep keep every cold rep honestly cold;
        # store_root= redirects them (benchmark the disk you deploy on).
        root = tempfile.mkdtemp(prefix="repro-coldstart-", dir=store_root)
        root2 = tempfile.mkdtemp(prefix="repro-coldstart-e2e-",
                                 dir=store_root)
        try:
            store = DiskStore(root)
            registry = RecordingRegistry(store=store)
            # Cold means cold: defeat the recording's own compile memo
            # so every rep really lowers it.
            recording._compiled = None
            t0 = time.perf_counter()
            registry.compiled_for("bench", digest, recording.compile,
                                  recording=recording)
            cold_acquire.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            registry.compiled_for("bench", digest, recording.compile,
                                  recording=recording)
            warm_acquire.append(time.perf_counter() - t0)

            restarted = RecordingRegistry(store=DiskStore(root))
            t0 = time.perf_counter()
            restarted.compiled_for("bench", digest, recording.compile,
                                   recording=recording)
            hit_acquire.append(time.perf_counter() - t0)

            # End-to-end: fresh registries, so the acquisition really
            # happens inside the timed first request — cold against an
            # empty store, store-hit against the populated one.
            recording._compiled = None
            elapsed, out_cold = first_request(
                RecordingRegistry(store=DiskStore(root2)))
            cold_first.append(elapsed)
            elapsed, out_hit = first_request(
                RecordingRegistry(store=DiskStore(root)))
            hit_first.append(elapsed)

            rows = store.entries()
            artifact_bytes = rows[0]["nbytes"] if rows else 0
            try:
                from_artifact(rows[0]["path"], expected_tenant="intruder")
                cross_tenant_rejected = False
            except TenantIsolationError:
                cross_tenant_rejected = True
        finally:
            shutil.rmtree(root, ignore_errors=True)
            shutil.rmtree(root2, ignore_errors=True)

    identical = {
        "output": bool(np.array_equal(out_cold.output, out_hit.output)),
        "delay": bool(out_cold.delay_s == out_hit.delay_s),
        "stats": bool(out_cold.stats == out_hit.stats),
        "energy": bool(math.isclose(out_cold.energy_j, out_hit.energy_j,
                                    rel_tol=1e-9)),
    }
    med_cold = statistics.median(cold_acquire)
    med_hit = statistics.median(hit_acquire)
    return {
        "workload": workload,
        "recorder": recorder.name,
        "reps": reps,
        "artifact_bytes": artifact_bytes,
        "cold": {
            "acquire_s": med_cold,
            "best_s": min(cold_acquire),
            "first_request_s": statistics.median(cold_first),
        },
        "warm": {
            "acquire_s": statistics.median(warm_acquire),
        },
        "store_hit": {
            "acquire_s": med_hit,
            "best_s": min(hit_acquire),
            "first_request_s": statistics.median(hit_first),
        },
        "speedup_acquire": (med_cold / med_hit) if med_hit else 0.0,
        "speedup_first_request": (
            statistics.median(cold_first) / statistics.median(hit_first)
            if hit_first and statistics.median(hit_first) else 0.0),
        "identical": identical,
        "cross_tenant_rejected": bool(cross_tenant_rejected),
        "store_stats": store.stats.as_dict() if store is not None else {},
    }


# ----------------------------------------------------------------------
# Serve: real-concurrency throughput across shard workers
# ----------------------------------------------------------------------
def _spin(n: int) -> int:
    """Fixed CPU-bound work; must be module-level (spawn pickles it)."""
    x = 0
    for i in range(n):
        x += i * i
    return x


def measure_machine_scaling(procs: int = 2, spin: int = 4_000_000) -> float:
    """How much 2x the CPU work slows down when split across ``procs``
    processes — the *hardware's* parallel-scaling ceiling.

    On shared/throttled vCPUs this lands well below ``procs`` even for
    pure compute, so the serve speedup is reported alongside it rather
    than against an assumed ideal of N.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")

    def run(n_procs: int) -> float:
        t0 = time.perf_counter()
        ps = [ctx.Process(target=_spin, args=(spin,))
              for _ in range(n_procs)]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        return time.perf_counter() - t0

    run(1)  # spawn warm-up (interpreter start dominates the first run)
    t1 = run(1)
    tn = run(procs)
    return (procs * t1 / tn) if tn > 0 else 0.0


def bench_serve(workload: str = "alexnet", requests: int = 12,
                workers: int = 2, seed: int = 0) -> Dict:
    """Wall-clock serving throughput: ``workers``-shard pool vs a
    single-worker pool on the same burst, plus the bit-identity gate
    against the in-process reference.

    Warm cost (record, spawn, verify+compile+open per worker) is
    reported separately — a long-lived deployment pays it once.
    """
    from repro.serve import ServeCatalog, make_burst, serve_burst

    catalog = ServeCatalog()
    catalog.record(workload)
    burst = make_burst([workload], requests, tenants=2, seed=seed)
    single = serve_burst(burst, catalog=catalog, workers=1)
    multi = serve_burst(burst, catalog=catalog, workers=workers,
                        verify=True)
    t1 = single.summary["throughput_rps"]
    tn = multi.summary["throughput_rps"]
    oracle = multi.summary["oracle"]["overall"]
    return {
        "workload": workload,
        "requests": requests,
        "workers": workers,
        "seed": seed,
        "single": {
            "throughput_rps": t1,
            "makespan_s": single.summary["makespan_s"],
            "p99_s": single.summary["latency_s"]["overall"]["p99"],
            "warm_s": single.warm_s,
        },
        "pool": {
            "throughput_rps": tn,
            "makespan_s": multi.summary["makespan_s"],
            "p99_s": multi.summary["latency_s"]["overall"]["p99"],
            "warm_s": multi.warm_s,
            "distinct_pids": multi.summary["workers"]["distinct_pids"],
        },
        "speedup": (tn / t1) if t1 > 0 else 0.0,
        "bit_identical": bool(multi.summary["bit_identical"]),
        "pool_matches_single_worker": bool(
            multi.identity_digest == single.identity_digest),
        "oracle_abs_error_p99_s": oracle["abs_error_s"]["p99"],
        "completed": multi.summary["requests"]["completed"],
    }


def run_serve_perf(quick: bool = False, requests: int = 12,
                   workers: int = 2) -> Dict:
    """Run the serve harness; returns the ``BENCH_serve.json`` document."""
    if quick:
        requests = min(requests, 8)
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        # The hardware ceiling: what "perfect" process scaling would be
        # on this machine (2.0 on two dedicated cores, much less on
        # shared vCPUs).  Serve speedup is judged relative to this.
        "machine_scaling_2proc": measure_machine_scaling(2),
        "serve": [bench_serve("alexnet", requests=requests,
                              workers=workers)],
    }


def compare_serve_baseline(doc: Dict, baseline: Dict,
                           max_regression: float = 2.0) -> List[str]:
    """Regressions of a serve bench against checked-in floors.

    Absolute throughput tolerates ``max_regression`` (CI wall clock is
    noisy); the speedup floor and the correctness gates are absolute —
    a pool that stops scaling or stops matching the reference bit-for-
    bit has lost the point of existing.
    """
    failures: List[str] = []
    rows = [r for r in doc.get("serve", ())
            if r["workload"] == baseline.get("serve_workload")]
    if not rows:
        return ["serve bench missing baseline workload "
                f"{baseline.get('serve_workload')!r}"]
    row = rows[0]
    floor = baseline["serve_throughput_rps"] / max_regression
    if row["pool"]["throughput_rps"] < floor:
        failures.append(
            f"serve throughput: {row['pool']['throughput_rps']:.1f} rps "
            f"< {floor:.1f} (baseline "
            f"{baseline['serve_throughput_rps']:.1f} / {max_regression:g})")
    if row["speedup"] < baseline["serve_speedup"]:
        failures.append(
            f"serve speedup: {row['speedup']:.2f}x < floor "
            f"{baseline['serve_speedup']:.2f}x")
    p99_ceiling = baseline["serve_p99_s"] * max_regression
    if row["pool"]["p99_s"] > p99_ceiling:
        failures.append(
            f"serve p99: {row['pool']['p99_s']:.3f}s > {p99_ceiling:.3f}s "
            f"(baseline {baseline['serve_p99_s']:.3f}s x {max_regression:g})")
    if not row["bit_identical"]:
        failures.append("served outputs diverged from the single-process "
                        "reference")
    if not row["pool_matches_single_worker"]:
        failures.append("pool outputs diverged from the single-worker pool")
    return failures


# ----------------------------------------------------------------------
# The full harness document
# ----------------------------------------------------------------------
def run_perf(quick: bool = False, reps: int = 5,
             epochs: int = 6, store_root: Optional[str] = None) -> Dict:
    """Run the harness and return the ``BENCH_replay.json`` document.

    ``quick`` trims to the CI smoke shape: the streaming-regime workload
    only, fewer reps/epochs.  The mnist/OursMDS pair is reported in the
    full run as the control-plane regime — its replay cost is dominated
    by real job execution and blocking polls that both engines share, so
    its expected ratio is ~1x, not 3x (see docs/API.md).
    """
    if quick:
        reps = min(reps, 3)
        epochs = min(epochs, 4)
    # One alexnet/Naive record run feeds both benches: the streaming-
    # regime replay A/B and the §5 sync stream.
    session = RecordSession(build_model("alexnet"), config=NAIVE)
    recording = session.run().recording
    replay = [bench_replay("alexnet", NAIVE, reps=reps,
                           recording=recording,
                           verify_key=session.service.recording_key)]
    if not quick:
        replay.append(bench_replay("mnist", OURS_MDS, reps=reps))
    doc: Dict = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "replay": replay,
        "mmu": [bench_mmu("alexnet", OURS_MDS, reps=3 if quick else 5)],
        "memsync": [bench_memsync("alexnet", NAIVE, epochs=epochs,
                                  recording=recording)],
        "cold_start": [bench_cold_start(
            "alexnet", NAIVE, reps=2 if quick else 3,
            recording=recording,
            verify_key=session.service.recording_key,
            store_root=store_root)],
    }
    return doc


def write_bench(doc: Dict, path: str = BENCH_FILENAME) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Baseline gate (CI perf-smoke)
# ----------------------------------------------------------------------
def compare_baseline(doc: Dict, baseline: Dict,
                     max_regression: float = 2.0) -> List[str]:
    """Regressions of ``doc`` against a checked-in baseline.

    Returns a list of failure strings (empty = pass).  A metric fails
    when it drops below ``baseline / max_regression`` — wall-clock on CI
    runners is noisy, so only a halving of throughput (or a collapse of
    the legacy-vs-optimized ratio) trips the gate.
    """
    failures: List[str] = []

    def gate(label: str, measured: float, floor: float) -> None:
        if measured < floor / max_regression:
            failures.append(
                f"{label}: {measured:,.0f} < {floor / max_regression:,.0f} "
                f"(baseline {floor:,.0f} / {max_regression:g})")

    streaming = [r for r in doc["replay"]
                 if r["workload"] == baseline.get("replay_workload")]
    if streaming:
        gate("replay entries/s", streaming[0]["compiled"]["entries_per_s"],
             baseline["replay_entries_per_s"])
        gate("replay speedup", streaming[0]["speedup_best"],
             baseline["replay_speedup"])
        for name, ok in streaming[0]["identical"].items():
            if not ok:
                failures.append(f"replay engines diverged on {name}")
    if "mmu_speedup" in baseline:
        row = (doc.get("mmu") or [{"skipped": "no mmu section"}])[0]
        if "skipped" in row:
            failures.append(f"mmu bench did not run: {row['skipped']}")
        else:
            gate("mmu speedup", row["speedup"], baseline["mmu_speedup"])
            if not row["tables_identical"]:
                failures.append("mmu page-table bytes diverged from the "
                                "per-page reference")
            if not row["translations_identical"]:
                failures.append("mmu translations diverged from the "
                                "per-page reference")
    if doc.get("memsync"):
        gate("memsync pages/s", doc["memsync"][0]["optimized"]["pages_per_s"],
             baseline["memsync_pages_per_s"])
        gate("memsync speedup", doc["memsync"][0]["speedup"],
             baseline["memsync_speedup"])
        if not doc["memsync"][0]["peer_views_equal"]:
            failures.append("memsync peer views diverged")
    if doc.get("cold_start") and "cold_start_speedup_acquire" in baseline:
        row = doc["cold_start"][0]
        # The acquisition ratio is the store's reason to exist, so the
        # floor is absolute (not noise-discounted): opening a published
        # artifact must beat recompiling it by at least this factor.
        if row["speedup_acquire"] < baseline["cold_start_speedup_acquire"]:
            failures.append(
                f"cold-start acquire speedup: "
                f"{row['speedup_acquire']:.1f}x < floor "
                f"{baseline['cold_start_speedup_acquire']:.1f}x")
        for name, ok in row["identical"].items():
            if not ok:
                failures.append(
                    f"store-hit replay diverged from cold compile on {name}")
        if not row["cross_tenant_rejected"]:
            failures.append("published artifact opened across tenants")
        ceiling = baseline.get("cold_start_max_artifact_bytes")
        if ceiling and row["artifact_bytes"] > ceiling:
            failures.append(
                f"published artifact grew to {row['artifact_bytes']:,} B "
                f"> {ceiling:,} B — data-page elision regressed")
    return failures
