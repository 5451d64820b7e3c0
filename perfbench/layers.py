"""Per-layer attribution for the traced run, measured from outside.

:class:`LayerTracer` replaces a fixed list of the program's public
callables (the layer boundaries in :data:`BOUNDARIES`) with timing
wrappers, in this process only and only while installed.  Each wrapper
pushes a frame on one stack, so a call's *self time* is its duration
minus the time its wrapped children took, and the self times of every
frame under an op add up to the op's wall time exactly, less the op's
own uncovered time (reported as ``<workload>.unattributed_s``).

Coarse boundaries become spans (kept in memory, exported once as a
Chrome trace in the ``repro.obs`` format); the per-page or per-register
hot calls only add calls and time to their op's totals, so the trace
stays small and the wrappers stay cheap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: (module, owner ("" = the module itself), attribute, layer, span?)
#: ``span`` False marks hot calls, aggregated per op instead.
BOUNDARIES: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.hw.mmu", "GpuMmu", "translate", "hw.mmu.translate", False),
    ("repro.hw.mmu", "GpuMmu", "translate_contiguous", "hw.mmu.translate",
     False),
    ("repro.driver.mmu_driver", "MmuTables", "insert_pages",
     "driver.mmu.insert_pages", False),
    ("repro.driver.mmu_driver", "MmuTables", "unmap_pages",
     "driver.mmu.insert_pages", False),
    ("repro.driver.driver", "KbaseDevice", "probe", "driver.probe", True),
    ("repro.driver.driver", "KbaseDevice", "run_compute_job", "driver.job",
     False),
    ("repro.hw.shader", "ShaderExecutor", "run_job", "hw.shader.run_job",
     False),
    ("repro.hw.memory", "PhysicalMemory", "write_pages",
     "hw.memory.write_pages", False),
    ("repro.hw.memory", "PhysicalMemory", "write_array",
     "hw.memory.write_pages", False),
    ("repro.hw.gpu", "MaliGpu", "hard_reset_now", "hw.gpu.reset", False),
    ("repro.core.gpushim", "GpuShim", "apply_commit", "core.shim.commit",
     False),
    ("repro.core.gpushim", "GpuShim", "execute_poll", "core.shim.poll",
     False),
    ("repro.core.drivershim", "DriverShim", "read32", "core.drivershim",
     False),
    ("repro.core.drivershim", "DriverShim", "write32", "core.drivershim",
     False),
    ("repro.core.drivershim", "DriverShim", "poll", "core.drivershim",
     False),
    ("repro.core.memsync", "MemorySynchronizer", "push", "core.memsync",
     True),
    ("repro.core.memsync", "MemorySynchronizer", "pull", "core.memsync",
     True),
    ("repro.core.memsync", "MemorySynchronizer", "apply_push",
     "core.memsync", True),
    ("repro.core.memsync", "MemorySynchronizer", "apply_pull",
     "core.memsync", True),
    ("repro.core.recording", "Recording", "body_bytes",
     "core.recording.seal", True),
    ("repro.core.recording", "Recording", "digest", "core.recording.seal",
     True),
    ("repro.tee.crypto", "SigningKey", "sign", "core.recording.seal", True),
    ("repro.core.recording", "Recording", "from_bytes",
     "core.recording.verify_parse", True),
    ("repro.core.recording", "Recording", "compile", "core.compiled.compile",
     True),
    ("repro.core.compiled", "", "compile_entries", "core.compiled.lower",
     True),
    ("repro.cloud.service", "CloudService", "open_session", "cloud.session",
     True),
    ("repro.cloud.service", "CloudService", "close_session",
     "cloud.session", True),
    ("repro.ml.runner", "WorkloadRunner", "run", "ml.runner.run", True),
    ("repro.core.testbed", "ClientDevice", "for_workload",
     "core.testbed.device", True),
    ("repro.core.replayer", "", "replay_entries", "core.replayer.dispatch",
     True),
)

#: Layers whose return value is a count worth summing (pages mapped).
COUNT_RESULTS = {"driver.mmu.insert_pages"}


class OpRecord:
    """One traced op: its outer wall time and per-layer self times."""

    __slots__ = ("kind", "wall_s", "self_s", "calls", "counted")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.wall_s = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counted: Dict[str, int] = defaultdict(int)


class LayerTracer:
    """Stack-based self-time attribution over :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        self._stack: List[float] = []   # child time covered, per frame
        self._op: Optional[OpRecord] = None
        self._op_id = ""
        self._saved: List[Tuple[object, str, object]] = []
        self.ops: List[OpRecord] = []
        #: (op id, name, start, end, depth) of coarse calls and ops.
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self._t0 = perf_counter()

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for module_name, owner_name, attr, layer, span in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = (owner.__dict__[attr] if owner_name
                   else getattr(module, attr))
            self._saved.append((owner, attr, raw))
            name = f"{owner_name}.{attr}" if owner_name else attr
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrap(raw.__func__, layer, name, span))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, layer, name, span))
            else:
                wrapped = self._wrap(raw, layer, name, span)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, func, layer: str, name: str, span: bool):
        stack = self._stack
        counts = layer in COUNT_RESULTS

        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return func(*args, **kwargs)
            t0 = perf_counter()
            stack.append(0.0)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                op.self_s[layer] += elapsed - stack.pop()
                op.calls[layer] += 1
                if counts and isinstance(result, int):
                    op.counted[layer] += result
                stack[-1] += elapsed
                if span:
                    self.spans.append((self._op_id, name, t0, t1,
                                       len(stack)))

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def op(self, kind: str, model: str, op_id: str):
        """Attribute every wrapped call inside the block to one op.

        The op's own self time (time no wrapped call covers) is stored
        under the ``unattributed`` layer.
        """
        record = OpRecord(kind)
        self._op, self._op_id = record, op_id
        t0 = perf_counter()
        self._stack.append(0.0)
        try:
            yield record
        finally:
            t1 = perf_counter()
            record.self_s["unattributed"] += (t1 - t0) - self._stack.pop()
            self.spans.append((op_id, f"{kind}:{model}", t0, t1, 0))
            self._op = None
            self.ops.append(record)

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, domain: str) -> None:
        """Export every span once, in the ``repro.obs`` Chrome format
        (wall-clock seconds since the tracer was created)."""
        from repro.obs import Tracer, write_chrome_trace
        tracer = Tracer(domain=domain)
        for op_id, name, t0, t1, depth in sorted(self.spans,
                                                  key=lambda s: s[2]):
            tracer.add_span(name, "layer", t0 - self._t0, t1 - self._t0,
                            tid=op_id, depth=depth, wall_start=t0,
                            wall_end=t1)
        write_chrome_trace(tracer, path)


def per_op_means(ops: List[OpRecord]) -> Dict[str, float]:
    """Mean self seconds per op for each layer, over ``ops``."""
    totals: Dict[str, float] = defaultdict(float)
    for op in ops:
        for layer, seconds in op.self_s.items():
            totals[layer] += seconds
    n = max(1, len(ops))
    return {layer: total / n for layer, total in totals.items()}


def per_op_calls(ops: List[OpRecord], layer: str,
                 counted: bool = False) -> float:
    n = max(1, len(ops))
    source = "counted" if counted else "calls"
    return sum(getattr(op, source).get(layer, 0) for op in ops) / n


def sum_error_share(ops: List[OpRecord]) -> float:
    """|Σ layer self times − Σ outer op walls| / Σ outer op walls."""
    wall = sum(op.wall_s for op in ops)
    attributed = sum(sum(op.self_s.values()) for op in ops)
    return abs(attributed - wall) / wall if wall > 0 else 0.0
