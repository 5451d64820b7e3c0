"""The closed-loop workloads: ``record`` and ``replay``.

One caller runs whole mix cycles (mnist, alexnet, mobilenet, in that
order) until the run's time is up, waiting for each op before sending
the next.  Every op's output is checked after the timed phase, so the
checks cost the timed ops nothing:

* record: the signed blob round-trips through
  ``Recording.from_bytes(verify_key=)``, its digest is the digest the
  recorder reported, and each model has one digest in the run;
* replay: every output is ``allclose`` to ``reference_forward`` for its
  input.  Each op gets a fresh seeded input, so a result cache cannot
  pass for replay work.

With tracing on, even cycles run under :class:`layers.LayerTracer` and
odd cycles run bare; the per-model gap between the two is the tracing
overhead.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

import repro
from repro.core.recorder import OURS_MDS
from repro.core.recording import Recording
from repro.core.speculation import CommitHistory
from repro.ml.models import build_model
from repro.ml.runner import generate_weights, reference_forward

from common import MIX, SUM_TOLERANCE, Outcome, median, \
    peak_rss_mb, percentile
from layers import (BOUNDARIES, LayerTracer, per_op_calls, per_op_means,
                    sum_error_share)

perf_counter = time.perf_counter

#: Per-op latency limit behind ``slo_met_share`` (a failed op misses):
#: about two and a half times a default run's tail.
SLO_S = {"record": 2.0, "replay": 0.5}
#: The tail percentile ``latency_tail_s`` reports: one that a default
#: run (~54 records, ~290 replays on a 2-vCPU host) leaves at least
#: thirteen samples beyond, so a slower host still leaves ten.
TAIL_Q = {"record": 75.0, "replay": 90.0}
#: Replay outputs must match the numpy reference this closely.
RTOL, ATOL = 1e-4, 1e-6


_SHAPES = {model: tuple(build_model(model).input_shape) for model in MIX}


def op_input(model: str, seed: int, index: int) -> np.ndarray:
    """The seeded input of op ``index`` (distinct per op)."""
    shape = _SHAPES[model]
    rng = np.random.RandomState((seed * 1_000_003 + index) % 2**32)
    return rng.rand(*shape).astype(np.float32)


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------
def record_once(model: str, history: CommitHistory, seed: int):
    return repro.record(model, recorder="OursMDS", network="wifi",
                        history=history, warm=0, seed=seed)


def setup_record(seed: int) -> Dict[str, CommitHistory]:
    """Warm one speculation history per model, so every timed op is a
    steady-state cloud dry run."""
    histories = {}
    for model in MIX:
        history = CommitHistory(OURS_MDS.spec_window)
        for _ in range(OURS_MDS.spec_window):
            record_once(model, history, seed)
        histories[model] = history
    return histories


def ship(result) -> Tuple[bytes, object, object]:
    """What the cloud hands the client: the signed blob, the verify key
    and the run's statistics.  Keeping only these (not the parsed log)
    stops the run's own heap, and so its garbage collections, growing
    with every op."""
    return result.recording.to_bytes(), result.verify_key, result.stats


def check_record(outcome: Outcome, results) -> Set[int]:
    """Indices of the ops whose recording is refused or inconsistent."""
    bad: Set[int] = set()
    first_digest: Dict[str, str] = {}
    for model, index, (blob, verify_key, stats) in results:
        try:
            parsed = Recording.from_bytes(blob, verify_key=verify_key)
        except Exception as exc:  # noqa: BLE001 - any refusal is a failure
            outcome.fail(f"record {model} op {index}: signed blob does "
                         f"not round-trip: {exc!r}")
            bad.add(index)
            continue
        digest = first_digest.setdefault(model, stats.recording_digest)
        if parsed.digest() != stats.recording_digest:
            outcome.fail(f"record {model} op {index}: parsed digest "
                         f"differs from the reported one")
            bad.add(index)
        elif digest != stats.recording_digest:
            outcome.fail(f"record {model} op {index}: a second recording "
                         f"digest in one run")
            bad.add(index)
    return bad


def record_cycle_stats(results) -> Dict[str, float]:
    """Exact modelled figures summed over the first mix cycle."""
    first = {}
    for model, _, (_, _, stats) in results:
        first.setdefault(model, stats)
    stats = [first[m] for m in MIX if m in first]
    return {
        "sim.delay_s": sum(s.recording_delay_s for s in stats),
        "sim.blocking_rtts": sum(s.blocking_rtts for s in stats),
        "sim.network_bytes": sum(s.network_bytes for s in stats),
        "core.shim.reg_accesses": sum(s.reg_accesses for s in stats),
        "core.memsync.pages_encoded": sum(s.memsync.encodes for s in stats),
        "core.memsync.wire_bytes": sum(s.memsync.wire_total_bytes
                                       for s in stats),
    }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class ReplayTarget:
    """One model's opened replay session and its reference inputs."""

    def __init__(self, model: str, seed: int) -> None:
        result = repro.record(model, recorder="OursMDS", network="wifi",
                              warm=0, seed=seed)
        blob = result.recording.to_bytes()      # what the cloud ships
        recording = Recording.from_bytes(blob, verify_key=result.verify_key)
        self.graph = build_model(model)
        self.weights = generate_weights(self.graph, seed=seed)
        device = repro.ClientDevice.for_workload(self.graph)
        replayer = repro.Replayer(device.optee, device.gpu, device.mem,
                                  device.clock, verify_key=result.verify_key)
        self.session = replayer.open(recording, self.weights)
        self.session.run(np.zeros(self.graph.input_shape, np.float32))


def setup_replay(seed: int) -> Dict[str, ReplayTarget]:
    return {model: ReplayTarget(model, seed) for model in MIX}


def check_replay(outcome: Outcome, targets, results, seed: int) -> Set[int]:
    """Indices of the ops whose output is not the reference's."""
    bad: Set[int] = set()
    for model, index, result in results:
        target = targets[model]
        expected = reference_forward(target.graph, target.weights,
                                     op_input(model, seed, index))
        if not np.allclose(result.output, expected, rtol=RTOL, atol=ATOL):
            outcome.fail(f"replay {model} op {index}: output differs from "
                         f"reference_forward by "
                         f"{np.abs(result.output - expected).max():.3g}")
            bad.add(index)
    return bad


def replay_cycle_stats(results) -> Dict[str, float]:
    first = {}
    for model, _, result in results:
        first.setdefault(model, result)
    return {"sim.delay_s": sum(first[m].delay_s for m in MIX if m in first)}


# ----------------------------------------------------------------------
# the shared closed loop
# ----------------------------------------------------------------------
def run_closed_loop(outcome: Outcome, seed: int, seconds: float,
                    trace: bool, trace_path: Optional[str],
                    import_s: float,
                    setup_repeats: int) -> None:
    name = outcome.workload
    if name == "record":
        setup: Callable = setup_record

        def prepare(model, index):
            return None

        def op(state, model, _):
            return record_once(model, state[model], seed)
        keep = ship
    else:
        setup = setup_replay
        prepare = partial(op_input, seed=seed)
        keep = None

        def op(state, model, x):
            return state[model].session.run(x)

    tracer = LayerTracer() if trace else None
    state, setup_times = None, []
    for repeat in range(max(1, setup_repeats)):
        state = None                     # free the previous set-up first
        traced = tracer is not None and repeat == setup_repeats - 1
        if traced:
            tracer.install()
        t0 = perf_counter()
        if traced:
            with tracer.op("setup", "mix", "setup") as setup_op:
                state = setup(seed)
            setup_op.wall_s = perf_counter() - t0
        else:
            state = setup(seed)
        setup_times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()

    latencies: Dict[str, List[float]] = {m: [] for m in MIX}
    bare: Dict[str, List[float]] = {m: [] for m in MIX}
    traced_lat: Dict[str, List[float]] = {m: [] for m in MIX}
    results: List[Tuple[str, int, object]] = []
    missed: Set[int] = set()       # failed or over the latency limit
    busy_s = 0.0
    index = cycle = 0
    t_start = perf_counter()
    deadline = t_start + seconds
    while True:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        for model in MIX:
            outcome.attempted += 1
            arg = prepare(model, index=index)
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.op(name, model, f"op-{index}") as record:
                        result = op(state, model, arg)
                else:
                    result = op(state, model, arg)
            except Exception as exc:  # noqa: BLE001 - a failed op
                busy_s += perf_counter() - t0
                missed.add(index)
                outcome.fail(f"{name} {model} op {index} raised {exc!r}")
                index += 1
                continue
            elapsed = perf_counter() - t0
            busy_s += elapsed
            if traced:
                record.wall_s = elapsed
                traced_lat[model].append(elapsed)
            else:
                bare[model].append(elapsed)
            latencies[model].append(elapsed)
            if elapsed > SLO_S[name]:
                missed.add(index)
            try:
                results.append((model, index,
                                keep(result) if keep else result))
            except Exception as exc:  # noqa: BLE001 - unshippable output
                missed.add(index)
                outcome.fail(f"{name} {model} op {index}: {exc!r}")
            index += 1
        if traced:
            tracer.uninstall()
        cycle += 1
        if perf_counter() >= deadline:
            break
    timed_s = perf_counter() - t_start
    rss_mb = peak_rss_mb()      # before the checks allocate references

    # --- correctness (outside the timed phase) -------------------------
    if name == "record":
        missed |= check_record(outcome, results)
        cycle_stats = record_cycle_stats(results)
    else:
        missed |= check_replay(outcome, state, results, seed)
        cycle_stats = replay_cycle_stats(results)

    # --- end-to-end ------------------------------------------------------
    everything = [x for m in MIX for x in latencies[m]]
    q = TAIL_Q[name]
    e2e = outcome.end_to_end
    e2e["setup_s"] = import_s + median(setup_times)
    e2e["ops_per_s"] = len(everything) / busy_s
    e2e["latency_p50_s"] = median(everything)
    e2e["latency_tail_s"] = percentile(everything, q)
    for model in MIX:
        e2e[f"{model}.latency_p50_s"] = median(latencies[model])
    e2e["slo_met_share"] = 1.0 - len(missed) / max(1, outcome.attempted)
    e2e["peak_rss_mb"] = rss_mb
    outcome.notes.append(
        f"{len(everything)} ops in {timed_s:.2f} s ({cycle} cycles); "
        f"latency_tail_s is p{q:g}; setup times "
        + ", ".join(f"{s:.3f}" for s in setup_times)
        + f" s plus {import_s:.3f} s of imports")

    # --- per layer ---------------------------------------------------------
    outcome.per_layer.update(cycle_stats)
    if tracer is not None:
        traced_layers(outcome, tracer, results, traced_lat, bare)
        if trace_path:
            tracer.write_chrome_trace(trace_path, domain=name)
            outcome.notes.append(f"chrome trace written to {trace_path}")


#: Layers timed during the last set-up rather than during the ops.
SETUP_LAYERS = ("core.testbed.device", "core.recording.verify_parse",
                "core.compiled.compile")
#: Per-op call counts: metric -> layer.
CALL_COUNTS = {"hw.mmu.translate_calls": "hw.mmu.translate",
               "hw.shader.jobs": "hw.shader.run_job",
               "core.shim.commits": "core.shim.commit",
               "core.shim.polls": "core.shim.poll"}


def traced_layers(outcome: Outcome, tracer: LayerTracer, results,
                  traced_lat, bare) -> None:
    """Per-layer metrics of the traced cycles and the last set-up."""
    name = outcome.workload
    layer = outcome.per_layer
    ops = [op for op in tracer.ops if op.kind == name]
    setup_ops = [op for op in tracer.ops if op.kind == "setup"]
    means, setup_means = per_op_means(ops), per_op_means(setup_ops)
    for key in {boundary[3] for boundary in BOUNDARIES}:
        source = setup_means if key in SETUP_LAYERS else means
        layer[f"{key}_s"] = source.get(key, 0.0)
    layer[f"{name}.unattributed_s"] = means.get("unattributed", 0.0)
    for metric, key in CALL_COUNTS.items():
        layer[metric] = per_op_calls(ops, key)
    layer["driver.mmu.pages_mapped"] = per_op_calls(
        ops, "driver.mmu.insert_pages", counted=True)
    layer["core.compiled.compiles"] = per_op_calls(setup_ops,
                                                   "core.compiled.compile")
    if name == "replay":
        replays = [r for _, _, r in results]
        layer["core.replayer.entries"] = (
            sum(r.stats.entries for r in replays) / max(1, len(replays)))
        layer["core.replayer.compiled_share"] = (
            sum(r.stats.compile_decision.startswith("compiled")
                for r in replays) / max(1, len(replays)))
    error = sum_error_share(ops)
    layer["trace.sum_error_share"] = error
    if error > SUM_TOLERANCE:
        outcome.problem(f"layer self times miss the op wall time by "
                        f"{error:.2%} (tolerance {SUM_TOLERANCE:.0%})")
    overhead = {m: median(traced_lat[m]) / median(bare[m]) - 1.0
                for m in MIX if traced_lat[m] and bare[m]}
    layer["trace.overhead_share"] = (median(list(overhead.values()))
                                     if overhead else 0.0)
    unattributed = sum(op.self_s.get("unattributed", 0.0) for op in ops)
    outcome.notes.append(
        f"traced {len(ops)} ops; unattributed share "
        f"{unattributed / max(1e-12, sum(op.wall_s for op in ops)):.1%}; "
        f"per-model tracing overhead "
        + ", ".join(f"{m} {share:+.1%}" for m, share in overhead.items()))
