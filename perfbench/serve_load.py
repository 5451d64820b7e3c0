"""The open-loop ``serve`` workload.

One process and one asyncio event loop drive a seeded schedule into
:class:`repro.serve.AsyncServeEngine` over a :class:`repro.serve.ShardPool`
of at most two workers (never more than ``nproc``).  Base traffic is a
Poisson process from two tenants over the mnist/alexnet/mobilenet mix,
conditioned on its count so every seed offers the same load; every
``BURST_EVERY_S`` one tenant sends ``BURST_SIZE`` alexnet requests at
once (a video-analytics client uploading frames), which builds queues
and batches that base traffic alone does not.

Each request is timed from when it was due, not from when the generator
got round to it; the generator's lateness is reported separately.  After
the timed phase every completed request's class is checked against the
argmax of ``reference_forward`` on its input, and a seeded sample is
checked bit for bit against ``repro.serve.execute_inline``.

Serve workers are separate processes, so the layers are read from the
engine's results, ``ShardPool.warm_info``/``stats`` and the artifact
store's persisted counters rather than from wrappers.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ml.models import build_model
from repro.ml.runner import generate_weights, reference_forward
from repro.serve import (
    AsyncServeEngine,
    PlanningOracle,
    ServeCatalog,
    ServeRequest,
    ShardPool,
    execute_inline,
)
from repro.store import DiskStore

from common import MIX, Outcome, median, percentile, \
    peak_rss_mb

perf_counter = time.perf_counter

TENANTS = ("tenant-0", "tenant-1")
BASE_RPS = 4.0
BURST_EVERY_S = 5.0
BURST_SIZE = 8
BURST_MODEL = "alexnet"
#: Latency limit, from the due time, behind ``slo_met_share``: about
#: three times the p90 of a default run (~0.3 s).
SLO_S = 1.0
#: The highest percentile a default run (~140 requests) leaves ten
#: samples beyond.
TAIL_Q = 90.0
WEIGHT_SEED = 0


def schedule(seed: int, seconds: float) -> List[ServeRequest]:
    """The seeded arrival schedule: base Poisson traffic plus bursts."""
    rng = random.Random(seed)
    n_base = int(round(BASE_RPS * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n_base))
    models = [MIX[i % len(MIX)] for i in range(n_base)]
    rng.shuffle(models)
    arrivals: List[Tuple[float, str, str, str]] = [
        (t, TENANTS[rng.randrange(len(TENANTS))], m, "base")
        for t, m in zip(times, models)]
    burst_at = BURST_EVERY_S / 2
    burst = 0
    while burst_at < seconds:
        tenant = TENANTS[burst % len(TENANTS)]
        arrivals.extend((burst_at, tenant, BURST_MODEL, "burst")
                        for _ in range(BURST_SIZE))
        burst_at += BURST_EVERY_S
        burst += 1
    arrivals.sort(key=lambda a: a[0])
    return [ServeRequest(request_id=f"{kind}-{i:05d}", tenant_id=tenant,
                         workload=model,
                         input_seed=(seed * 1_000_003 + i) % 2**31,
                         arrival_offset_s=due)
            for i, (due, tenant, model, kind) in enumerate(arrivals)]


def is_base(request: ServeRequest) -> bool:
    return request.request_id.startswith("base-")


def request_input(workload: str, input_seed: int) -> np.ndarray:
    """The input a shard worker builds for ``input_seed``."""
    shape = build_model(workload).input_shape
    return np.random.RandomState(input_seed).rand(*shape).astype(np.float32)


class ServeSetup:
    """Recordings, a fresh artifact store and a warmed shard pool."""

    def __init__(self, work_dir: str, workers: int) -> None:
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
        self.catalog = ServeCatalog(store_path=self.store_dir,
                                    weight_seed=WEIGHT_SEED)
        for model in MIX:
            self.catalog.record(model)
        self.pool = ShardPool(workers=workers)
        self.pool.start()
        try:
            t0 = perf_counter()
            self.specs = [self.catalog.warm_spec(tenant, model)
                          for tenant in TENANTS for model in MIX]
            for spec in self.specs:
                self.pool.warm(spec)
            self.warm_s = perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def store_stats(self) -> Dict[str, int]:
        return DiskStore(self.store_dir).persisted_stats()

    def close(self) -> None:
        self.pool.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


async def drive(engine: AsyncServeEngine, requests: List[ServeRequest]):
    """Submit each request at its due time; return (result, latency
    from due, generator lag) per request, and the start time."""
    loop = asyncio.get_running_loop()
    t0 = perf_counter()
    lags: List[float] = []

    async def one(request: ServeRequest, due: float):
        result = await engine.submit(request)
        return result, perf_counter() - due

    tasks = []
    for request in requests:
        due = t0 + request.arrival_offset_s
        wait = due - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        lags.append(max(0.0, perf_counter() - due))
        tasks.append(loop.create_task(one(request, due)))
    try:
        done = await asyncio.gather(*tasks)
    finally:
        await engine.shutdown()
    return done, lags, t0


def run_serve(outcome: Outcome, seed: int, seconds: float, trace: bool,
              trace_path: Optional[str], import_s: float, work_dir: str,
              setup_repeats: int) -> None:
    workers = max(1, min(2, os.cpu_count() or 1))
    requests = schedule(seed, seconds)

    setup_times, setup = [], None
    try:
        for _ in range(max(1, setup_repeats)):
            if setup is not None:
                setup.close()
                setup = None
            t0 = perf_counter()
            setup = ServeSetup(work_dir, workers)
            setup_times.append(perf_counter() - t0)
        store_after_warm = setup.store_stats()

        service = {}
        for spec in setup.specs:
            info = setup.pool.warm_info(spec.tenant_id, spec.digest())
            if info is not None:
                service[(spec.tenant_id, spec.digest())] = \
                    info["calibrate_wall_s"]
        predicted = PlanningOracle(workers, service).plan(requests,
                                                          setup.catalog)

        engine = AsyncServeEngine(setup.pool, setup.catalog)
        done, lags, t_start = asyncio.run(drive(engine, requests))
        setup.pool.close()          # reap the workers before reading RSS
        pool_stats = setup.pool.stats
        rss_mb = peak_rss_mb()      # before the checks allocate references

        # --- correctness (outside the timed phase) -----------------------
        outcome.attempted = len(requests)
        completed = []
        for request, (result, latency) in zip(requests, done):
            if not result.ok:
                outcome.fail(f"{request.request_id} {result.status}: "
                             f"{result.error}")
                continue
            completed.append((request, result, latency))
        wrong = (check_classes(outcome, completed)
                 | check_inline(outcome, setup, completed, seed))
    finally:
        if setup is not None:
            setup.close()

    # --- end-to-end -------------------------------------------------------
    latencies = [lat for _, _, lat in completed]
    base = [(r, lat) for r, _, lat in completed if is_base(r)]
    last_done = max((t_start + r.arrival_offset_s + lat
                     for r, _, lat in completed), default=t_start)
    timed_s = max(last_done - t_start, 1e-9)
    e2e = outcome.end_to_end
    e2e["setup_s"] = import_s + median(setup_times)
    e2e["ops_per_s"] = len(completed) / timed_s
    # Medians are of the base traffic, the tail is of every request: the
    # bursts build the queues and batches, so a batching change should
    # move the tail and leave the medians alone.
    e2e["latency_p50_s"] = median([lat for _, lat in base])
    e2e["latency_tail_s"] = percentile(latencies, TAIL_Q)
    for model in MIX:
        e2e[f"{model}.latency_p50_s"] = median(
            [lat for r, lat in base if r.workload == model])
    e2e["slo_met_share"] = (
        sum(lat <= SLO_S and r.request_id not in wrong
            for r, _, lat in completed) / len(requests))
    e2e["peak_rss_mb"] = rss_mb
    outcome.notes.append(
        f"{len(requests)} requests offered, {len(completed)} completed in "
        f"{timed_s:.2f} s; latency_tail_s is p{TAIL_Q:g}; {workers} "
        f"workers; setup times "
        + ", ".join(f"{s:.3f}" for s in setup_times)
        + f" s plus {import_s:.3f} s of imports")

    # --- per layer ----------------------------------------------------------
    layer = outcome.per_layer
    service_s = [res.wall_service_s for _, res, _ in completed]
    waits = [lat - res.wall_service_s for _, res, lat in completed]
    ratios = [lat / predicted[r.request_id].latency_s
              for r, _, lat in completed
              if predicted.get(r.request_id)
              and predicted[r.request_id].latency_s > 0]
    statuses = [res.status for res, _ in done]
    layer["serve.service_p50_s"] = median(service_s)
    layer["serve.queue_wait_p50_s"] = median(waits)
    layer["serve.queue_wait_p95_s"] = percentile(waits, 95.0)
    layer["serve.batch_size_mean"] = (
        sum(res.batch_size for _, res, _ in completed)
        / max(1, len(completed)))
    layer["serve.worker_busy_share"] = sum(service_s) / (workers * timed_s)
    layer["serve.oracle_ratio_p50"] = median(ratios) if ratios else 0.0
    layer["serve.warm_s"] = setup.warm_s
    layer["serve.generator_lag_p95_s"] = percentile(lags, 95.0)
    layer["serve.rejected"] = statuses.count("rejected")
    layer["serve.aborted"] = statuses.count("aborted")
    layer["serve.retries"] = (
        sum(max(0, res.attempts - 1) for _, res, _ in completed)
        + pool_stats.failover_requeues)
    for key in ("hits", "misses", "publishes"):
        layer[f"store.{key}"] = store_after_warm.get(key, 0)
    layer["trace.overhead_share"] = 0.0
    if trace and trace_path:
        write_trace(trace_path, completed)
        outcome.notes.append(f"chrome trace written to {trace_path}")


def check_classes(outcome: Outcome, completed) -> Set[str]:
    """Every completed request's class is the reference argmax; returns
    the ids of those whose class is not."""
    wrong: Set[str] = set()
    weights = {m: generate_weights(build_model(m), seed=WEIGHT_SEED)
               for m in MIX}
    for request, result, _ in completed:
        expected = reference_forward(
            build_model(request.workload), weights[request.workload],
            request_input(request.workload, request.input_seed))
        if result.output_class != int(np.argmax(expected)):
            outcome.fail(f"{request.request_id}: class "
                         f"{result.output_class} != reference "
                         f"{int(np.argmax(expected))}")
            wrong.add(request.request_id)
    return wrong


def check_inline(outcome: Outcome, setup: ServeSetup, completed,
                 seed: int) -> Set[str]:
    """Re-run a seeded sample (one request per model, from one tenant)
    in this process, through the worker code path, and require
    bit-identical outputs."""
    rng = random.Random(seed)
    tenant = rng.choice(TENANTS)
    sample = []
    for model in MIX:
        candidates = [c for c in completed
                if c[0].tenant_id == tenant and c[0].workload == model]
        if candidates:
            sample.append(rng.choice(candidates))
    if not sample:
        return set()
    specs = [s for s in setup.specs
             if s.tenant_id == tenant
             and s.workload in {r.workload for r, _, _ in sample}]
    tasks = [setup.catalog.task_for(r) for r, _, _ in sample]
    reference = execute_inline(specs, tasks)
    wrong: Set[str] = set()
    for (request, result, _), ref in zip(sample, reference):
        if ref.output_sha256 != result.output_sha256:
            outcome.fail(f"{request.request_id}: pool output differs from "
                         f"execute_inline")
            wrong.add(request.request_id)
    return wrong


def write_trace(path: str, completed) -> None:
    """One span per request (due to result) with its queue and service
    parts as children, in the ``repro.obs`` Chrome format."""
    from repro.obs import Tracer, write_chrome_trace
    tracer = Tracer(domain="serve")
    for request, result, latency in completed:
        start = request.arrival_offset_s
        end = start + latency
        tid = request.request_id
        tracer.add_span("request", "serve", start, end, tid=tid, depth=0,
                        args={"workload": request.workload,
                              "tenant": request.tenant_id,
                              "batch_size": result.batch_size})
        tracer.add_span("queue", "serve", start, end - result.wall_service_s,
                        tid=tid, depth=1)
        tracer.add_span("service", "serve", end - result.wall_service_s, end,
                        tid=tid, depth=1,
                        args={"worker_pid": result.worker_pid})
    write_chrome_trace(tracer, path)
