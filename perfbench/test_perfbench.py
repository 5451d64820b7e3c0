"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Short in-process runs (one set-up, about a second of timed ops) check
that every workload emits every metric with its unit, that a wrong
output is counted as a failure, that the modelled figures repeat
exactly, and that the driver refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
bench.import_program()

from common import END_TO_END, PER_LAYER, SUM_TOLERANCE  # noqa: E402

#: Largest share of an op's wall time the layers may leave unattributed.
UNATTRIBUTED_SHARE = 0.10

SIM_KEYS = ("sim.delay_s", "sim.blocking_rtts", "sim.network_bytes",
            "core.shim.reg_accesses", "core.memsync.pages_encoded",
            "core.memsync.wire_bytes")


def short_run(workload: str, trace: int = 0, seed: int = 3,
              seconds: float = 1.0):
    args = bench.parse_args(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds),
                             "--trace", str(trace)])
    return bench.run(args, import_s=0.0, setup_repeats=1)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_metric_with_its_unit(workload, trace, capsys):
    outcome = short_run(workload, trace=trace)
    line = bench.report(outcome, bool(trace))
    printed = capsys.readouterr().out
    table = PER_LAYER if trace else END_TO_END
    assert line["correct"], outcome.problems
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, _ in table]
    for name, unit in table:
        assert line["metrics"][name]["unit"] == unit
        assert f"{name} " in printed
    if trace and workload != "serve":
        metrics = line["metrics"]
        assert metrics["trace.sum_error_share"]["value"] <= SUM_TOLERANCE
        op_wall = sum(m["value"] for m in metrics.values()
                      if m["unit"] == "s/op")
        unattributed = metrics[f"{workload}.unattributed_s"]["value"]
        assert 0 < unattributed < UNATTRIBUTED_SHARE * op_wall
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_injected_wrong_replay_output_is_a_failure(monkeypatch):
    from repro.core.replayer import ReplaySession
    real_run = ReplaySession.run
    calls = []

    def corrupt_second_timed(self, input_array):
        result = real_run(self, input_array)
        calls.append(1)
        # one warm-up inference per model in set-up, then the timed ops
        if len(calls) == 5:
            result.output = result.output + 1.0
        return result

    monkeypatch.setattr(ReplaySession, "run", corrupt_second_timed)
    outcome = short_run("replay")
    assert outcome.failed == 1
    assert not outcome.correct
    assert outcome.end_to_end["slo_met_share"] < 1.0


def test_injected_bad_record_signature_is_a_failure(monkeypatch):
    import repro
    real_record = repro.record
    calls = []

    def tamper_first_timed(*args, **kwargs):
        result = real_record(*args, **kwargs)
        calls.append(1)
        # three warm-up records per model in set-up, then the timed ops
        if len(calls) == 10:
            result.recording.signature = bytes(32)
        return result

    monkeypatch.setattr(repro, "record", tamper_first_timed)
    outcome = short_run("record")
    assert outcome.failed == 1
    assert not outcome.correct


def test_modelled_figures_repeat_exactly():
    first = short_run("record", seed=5).per_layer
    second = short_run("record", seed=5).per_layer
    for key in SIM_KEYS:
        assert first[key] == second[key] and first[key] > 0, key
    replay_a = short_run("replay", seed=5).per_layer["sim.delay_s"]
    replay_b = short_run("replay", seed=5).per_layer["sim.delay_s"]
    assert replay_a == replay_b > 0


def test_exits_nonzero_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "record",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def session_processes(sid: int):
    """Pids of live or unreaped processes in session ``sid``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue                    # ended while being listed
        if int(fields[3]) == sid:       # fields after the name: state, ppid, pgrp, session
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to list a session's processes")
def test_serve_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert session_processes(proc.pid) == []
