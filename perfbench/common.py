"""Metric tables and statistics shared by the benchmark's workloads."""

from __future__ import annotations

import math
import resource
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The three models every workload mixes: control-plane bound (mnist),
#: page-table and buffer bound (alexnet), kernel-count bound (mobilenet).
MIX = ("mnist", "alexnet", "mobilenet")

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("mnist.latency_p50_s", "s"),
    ("alexnet.latency_p50_s", "s"),
    ("mobilenet.latency_p50_s", "s"),
    ("slo_met_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, printed by every workload with ``--trace 1``.  A
#: layer a workload does not reach reads 0.  ``/op`` values are means
#: over the traced ops; ``/cycle`` values are exact sums over the first
#: mix cycle (one op per model).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("hw.mmu.translate_s", "s/op"),
    ("hw.mmu.translate_calls", "calls/op"),
    ("driver.mmu.insert_pages_s", "s/op"),
    ("driver.mmu.pages_mapped", "pages/op"),
    ("driver.probe_s", "s/op"),
    ("driver.job_s", "s/op"),
    ("hw.shader.run_job_s", "s/op"),
    ("hw.shader.jobs", "jobs/op"),
    ("hw.memory.write_pages_s", "s/op"),
    ("hw.gpu.reset_s", "s/op"),
    ("core.shim.commit_s", "s/op"),
    ("core.shim.commits", "commits/op"),
    ("core.shim.poll_s", "s/op"),
    ("core.shim.polls", "polls/op"),
    ("core.drivershim_s", "s/op"),
    ("core.memsync_s", "s/op"),
    ("core.memsync.pages_encoded", "pages/cycle"),
    ("core.memsync.wire_bytes", "B/cycle"),
    ("core.recording.seal_s", "s/op"),
    ("cloud.session_s", "s/op"),
    ("ml.runner.run_s", "s/op"),
    ("sim.delay_s", "virtual_s/cycle"),
    ("sim.blocking_rtts", "rtts/cycle"),
    ("sim.network_bytes", "B/cycle"),
    ("core.shim.reg_accesses", "accesses/cycle"),
    ("core.testbed.device_s", "s"),
    ("core.recording.verify_parse_s", "s"),
    ("core.compiled.compile_s", "s"),
    ("core.compiled.compiles", "count"),
    ("core.compiled.lower_s", "s/op"),
    ("core.replayer.dispatch_s", "s/op"),
    ("core.replayer.entries", "entries/op"),
    ("core.replayer.compiled_share", "ratio"),
    ("record.unattributed_s", "s/op"),
    ("replay.unattributed_s", "s/op"),
    ("serve.service_p50_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p95_s", "s"),
    ("serve.batch_size_mean", "requests"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.oracle_ratio_p50", "ratio"),
    ("serve.warm_s", "s"),
    ("serve.generator_lag_p95_s", "s"),
    ("serve.rejected", "count"),
    ("serve.aborted", "count"),
    ("serve.retries", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.publishes", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.sum_error_share", "ratio"),
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 2

#: Largest |Σ layer self times − Σ op walls| / Σ op walls a traced run
#: accepts before it reports itself incorrect.
SUM_TOLERANCE = 0.01


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; NaN for no values."""
    return float(np.percentile(values, q)) if len(values) else math.nan


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Outcome:
    """What one workload run produced, before it is printed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.notes: List[str] = []

    def fail(self, message: str) -> None:
        """Record one failed op (a wrong, rejected or aborted output)."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def problem(self, message: str) -> None:
        """Record a run-level check that failed outside any one op."""
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems
