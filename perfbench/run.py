"""End-to-end and per-layer benchmark of the three user paths.

    python3 perfbench/run.py --workload {record,replay,serve} \\
        --seed N --seconds S --trace {0,1}

* ``record``  closed loop, one caller: steady-state cloud dry runs.
* ``replay``  closed loop, one caller: TEE replay of signed recordings.
* ``serve``   open loop, one generator: seeded arrivals into the
  asyncio serving engine over a two-worker shard pool.

Each workload mixes mnist, alexnet and mobilenet (see ``BENCHMARK.json``
for why).  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it installs layer wrappers in this process, prints
the per-layer metrics and writes a Chrome trace under ``perfbench/out``.
Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` beside this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

from common import END_TO_END, PER_LAYER, SETUP_REPEATS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("record", "replay", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'repro'} "
              f"package beside the benchmark", file=sys.stderr)
        sys.exit(2)


def import_program() -> float:
    """Import the program from ``src/``; returns the import time."""
    require_program()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro            # noqa: F401
    import repro.serve      # noqa: F401
    return time.perf_counter() - t0


def run(args: argparse.Namespace, import_s: float,
        setup_repeats: int = SETUP_REPEATS) -> Outcome:
    """Run one workload and return its :class:`common.Outcome`."""
    outcome = Outcome(args.workload)
    OUT.mkdir(exist_ok=True)            # traces and the serve store
    trace_path = None
    if args.trace:
        trace_path = str(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    if args.workload == "serve":
        from serve_load import run_serve
        run_serve(outcome, args.seed, args.seconds, bool(args.trace),
                  trace_path, import_s, work_dir=str(OUT),
                  setup_repeats=setup_repeats)
    else:
        from closed_loop import run_closed_loop
        run_closed_loop(outcome, args.seed, args.seconds, bool(args.trace),
                        trace_path, import_s, setup_repeats=setup_repeats)
    return outcome


def report(outcome, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result line."""
    table = PER_LAYER if trace else END_TO_END
    source = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for name, unit in table:
        value = float(source.get(name, 0.0))
        if not math.isfinite(value):
            outcome.problem(f"metric {name} is {value}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    unknown = set(source) - {name for name, _ in table}
    if unknown:
        outcome.problem(f"metrics outside the table: {sorted(unknown)}")
    print(f"# workload {outcome.workload}: "
          f"{outcome.attempted} ops attempted, {outcome.failed} failed")
    for note in outcome.notes:
        print(f"# {note}")
    for problem in outcome.problems:
        print(f"# PROBLEM: {problem}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def stop_processes(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    The serve pool joins its workers on close; any still alive here are
    terminated, then killed.  The multiprocessing resource tracker, which
    the pool's queues start, would otherwise only notice the run's exit
    afterwards and end a moment after it; its pending finalizers (the
    queues' semaphores) are run first so nothing restarts it, then it is
    stopped and reaped.
    """
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()
    from multiprocessing import resource_tracker, util
    util._run_finalizers(0)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)     # keep every scratch file in here
    # One BLAS thread, as the serve workers already run: the simulator's
    # arrays are too small to gain from more, and a spinning second
    # thread on a small machine only adds run-to-run noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_s = import_program()
        outcome = run(args, import_s)
    finally:
        stop_processes()
    line = report(outcome, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
