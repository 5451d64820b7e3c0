"""Wall-clock acceptance benchmark for the compiled-recording fast path.

Unlike every other benchmark in this directory (which measure *simulated*
time), this one measures real elapsed seconds via
:mod:`repro.analysis.perf` and asserts the PR's headline numbers:

* replaying the streaming-regime workload (alexnet/Naive) through the
  columnar compiled program is at least 3x faster than the legacy
  per-entry interpreter, with bit-identical outputs, virtual-clock
  delays, and replay statistics;
* the §5 memsync encode path (single encode per page + unchanged-page
  skip) is at least 3x faster than the seed double-encode path in
  steady state, leaving the peer view byte-identical;
* the range-granular MMU (one walk and one PTE slice per leaf table) is
  at least 10x faster than the per-page reference on alexnet/OursMDS's
  record-run page-table traffic, with identical page-table bytes and
  translations;
* the harness emits ``BENCH_replay.json`` at the repository root.

The control-plane regime (mnist/OursMDS) is reported but not gated on a
ratio: its replay cost is real job execution and blocking polls that
both engines share, so ~1x is the expected result there (see
docs/API.md).
"""

import json
import os

import pytest

from repro.analysis import perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_doc():
    doc = perf.run_perf(reps=5, epochs=6)
    perf.write_bench(doc, os.path.join(REPO_ROOT, perf.BENCH_FILENAME))
    return doc


def _streaming(doc):
    return next(r for r in doc["replay"] if r["workload"] == "alexnet")


class TestReplaySpeedup:
    def test_engines_bit_identical(self, bench_doc):
        for run in bench_doc["replay"]:
            for check, ok in run["identical"].items():
                assert ok, f"{run['workload']}: engines diverged on {check}"

    def test_streaming_replay_at_least_3x(self, bench_doc):
        run = _streaming(bench_doc)
        assert run["speedup_best"] >= 3.0, (
            f"compiled replay only {run['speedup_best']:.2f}x over legacy "
            f"(median {run['speedup_median']:.2f}x)")

    def test_recording_blob_untouched_by_compile(self, bench_doc):
        for run in bench_doc["replay"]:
            assert run["identical"]["recording_digest"]


class TestMmuRangeWalk:
    def test_identical_to_per_page_reference(self, bench_doc):
        row = bench_doc["mmu"][0]
        assert row["tables_identical"]
        assert row["translations_identical"]

    def test_range_walk_at_least_10x(self, bench_doc):
        row = bench_doc["mmu"][0]
        assert row["speedup"] >= 10.0, (
            f"range MMU only {row['speedup']:.1f}x over the per-page "
            f"reference")


class TestMemsyncSpeedup:
    def test_encode_at_least_3x(self, bench_doc):
        m = bench_doc["memsync"][0]
        assert m["speedup"] >= 3.0, (
            f"memsync encode only {m['speedup']:.2f}x over the seed path")

    def test_peer_views_identical(self, bench_doc):
        assert bench_doc["memsync"][0]["peer_views_equal"]

    def test_skip_and_single_encode_active(self, bench_doc):
        m = bench_doc["memsync"][0]
        # The optimized path must actually skip unchanged re-dirty pages
        # and must never encode more than one pass per shipped page.
        assert m["optimized"]["pages_skipped"] > 0
        assert m["optimized"]["encodes"] < m["legacy"]["encodes"]


class TestColdStart:
    """The artifact store's headline: a restarted worker opens its
    compiled program (np.memmap) instead of recompiling it."""

    def test_store_hit_at_least_10x_over_cold_compile(self, bench_doc):
        row = bench_doc["cold_start"][0]
        assert row["workload"] == "alexnet"
        assert row["speedup_acquire"] >= 10.0, (
            f"store-hit acquire only {row['speedup_acquire']:.1f}x over "
            f"compile+publish (cold {row['cold']['acquire_s'] * 1e3:.1f} ms,"
            f" hit {row['store_hit']['acquire_s'] * 1e3:.2f} ms)")

    def test_store_hit_replay_bit_identical(self, bench_doc):
        row = bench_doc["cold_start"][0]
        for check, ok in row["identical"].items():
            assert ok, f"store-hit replay diverged on {check}"

    def test_data_page_elision_bounds_artifact(self, bench_doc):
        # alexnet/Naive's raw memory image is ~116 MB; elision of the
        # protected data pages must keep the artifact around 1 MB.
        row = bench_doc["cold_start"][0]
        assert 0 < row["artifact_bytes"] < 5_000_000

    def test_cross_tenant_open_rejected(self, bench_doc):
        assert bench_doc["cold_start"][0]["cross_tenant_rejected"]

    def test_end_to_end_first_request_improves(self, bench_doc):
        # Not a hard gate (dominated by recording-load + weight install,
        # both engine-independent), but the store must never make the
        # first request slower.
        row = bench_doc["cold_start"][0]
        assert row["speedup_first_request"] > 1.0


class TestArtifact:
    def test_bench_json_emitted(self, bench_doc):
        path = os.path.join(REPO_ROOT, perf.BENCH_FILENAME)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == perf.BENCH_SCHEMA
        assert doc["replay"] and doc["memsync"]

    def test_baseline_gate_passes_here(self, bench_doc):
        with open(os.path.join(REPO_ROOT, "benchmarks",
                               "perf_baseline.json")) as fh:
            baseline = json.load(fh)
        failures = perf.compare_baseline(bench_doc, baseline)
        assert not failures, failures
