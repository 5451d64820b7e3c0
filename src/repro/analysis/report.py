"""Plain-text tables for the benchmark harness.

Each benchmark prints the same rows/series the paper's table or figure
reports, and appends them to ``benchmarks/results/`` so EXPERIMENTS.md can
cite a concrete artifact.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

# Version of the ``--format json`` CLI envelope: every subcommand emits
# ``{"command": ..., "schema": CLI_JSON_SCHEMA, "data": ...}`` so
# scripted consumers can sniff one shape for all commands.
CLI_JSON_SCHEMA = 1

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "results")


def json_envelope(command: str, data) -> str:
    """The ``--format json`` output for one CLI invocation."""
    return json.dumps({"command": command, "schema": CLI_JSON_SCHEMA,
                       "data": data}, indent=2, sort_keys=True, default=str)


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [title, sep, line(headers), sep]
    out.extend(line(row) for row in str_rows)
    out.append(sep)
    return "\n".join(out)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percent_change(base: float, new: float) -> float:
    """Positive = reduction relative to base (the paper's convention)."""
    if base == 0:
        return 0.0
    return 100.0 * (base - new) / base


def fleet_summary_tables(summary: dict) -> str:
    """Render a fleet run's summary dict (see
    :meth:`repro.fleet.FleetSimulation.summary`) as the serving report:
    an overview table, per-link latency percentiles, and the cache's
    hit-vs-miss service times."""
    sessions = summary["sessions"]
    cache = summary["cache"]
    pool = summary["pool"]
    vm = summary["vm"]
    overview = format_table(
        "Fleet overview",
        ["metric", "value"],
        [
            ["sessions offered", sessions["offered"]],
            ["sessions completed", sessions["completed"]],
            ["sessions rejected", sessions["rejected"]],
            ["rejection rate", f"{100 * sessions['rejection_rate']:.1f}%"],
            ["cache hit rate", f"{100 * cache['hit_rate']:.1f}%"],
            ["throughput", f"{summary['throughput_sessions_per_s']:.2f} "
                           "sessions/s"],
            ["makespan", f"{summary['makespan_s']:.1f} s"],
            ["peak busy VMs", f"{pool['peak_busy']}/{pool['capacity']}"],
            ["warm/cold boots",
             f"{pool['warm_grants']}/{pool['cold_grants']}"],
            ["VM time", f"{vm['vm_seconds']:.1f} s"],
            ["cost", f"${vm['cost_usd']:.4f}"],
        ])
    lat_rows = []
    for link, dist in sorted(summary["latency_s"]["by_link"].items()):
        lat_rows.append([link, dist["count"], dist["p50"], dist["p95"],
                         dist["p99"], dist["mean"]])
    overall = summary["latency_s"]["overall"]
    lat_rows.append(["all", overall["count"], overall["p50"],
                     overall["p95"], overall["p99"], overall["mean"]])
    latency = format_table(
        "Session latency by link (seconds)",
        ["link", "n", "p50", "p95", "p99", "mean"], lat_rows)
    svc_rows = []
    for label, dist in (("cache hit", summary["service_s"]["cache_hit"]),
                        ("cache miss", summary["service_s"]["cache_miss"])):
        svc_rows.append([label, dist["count"], dist["p50"], dist["p95"],
                         dist["p99"], dist["mean"]])
    service = format_table(
        "Service time by cache outcome (seconds, queueing excluded)",
        ["outcome", "n", "p50", "p95", "p99", "mean"], svc_rows)
    tables = [overview, latency, service]
    network = summary.get("network")
    if network:
        net_rows = []
        for link, dist in sorted(network["time_blocked_s"]["by_link"].items()):
            net_rows.append([link, dist["count"], dist["p50"], dist["p95"],
                             dist["p99"], dist["mean"]])
        all_blocked = network["time_blocked_s"]["overall"]
        net_rows.append(["all", all_blocked["count"], all_blocked["p50"],
                         all_blocked["p95"], all_blocked["p99"],
                         all_blocked["mean"]])
        tables.append(format_table(
            "Time blocked on the link (seconds)",
            ["link", "n", "p50", "p95", "p99", "mean"], net_rows))
    failover = summary.get("failover")
    if failover and failover["total_failovers"]:
        wait = failover["wait_s"]
        faults = summary.get("vm_faults", {})
        tables.append(format_table(
            "Failover (VM deaths survived via checkpoint resume)",
            ["metric", "value"],
            [
                ["VM deaths", faults.get("vm_deaths",
                                         failover["total_failovers"])],
                ["sessions with failover",
                 failover["sessions_with_failover"]],
                ["failover requeues", pool.get("failover_requeues", 0)],
                ["failover rejections",
                 faults.get("failover_rejections", 0)],
                ["death-to-resume p50", f"{wait['p50']:.3f} s"],
                ["death-to-resume p95", f"{wait['p95']:.3f} s"],
                ["death-to-resume mean", f"{wait['mean']:.3f} s"],
            ]))
    return "\n\n".join(tables)


def chaos_summary_tables(summary: dict) -> str:
    """Render a chaos run's summary dict (see
    :meth:`repro.resilience.ChaosReport.summary`): the baseline line,
    then one row per fault plan with byte-identity verdict, overhead,
    and the channel's retry/resume counters."""
    base = summary["baseline"]
    header = format_table(
        "Chaos baseline (fault-free)",
        ["metric", "value"],
        [
            ["workload", summary["workload"]],
            ["recorder", summary["recorder"]],
            ["link", summary["link"]],
            ["seed", summary["config"]["seed"]],
            ["recording delay", f"{base['delay_s']:.3f} s"],
            ["recording bytes", base["recording_bytes"]],
            ["sha256", base["sha256"][:16] + "..."],
        ])
    rows = []
    for run in summary["plans"]:
        rows.append([
            run["plan"],
            "IDENTICAL" if run["identical"] else "DIVERGED",
            f"{run['overhead_pct']:.2f}%",
            run["retries"],
            run["timeouts"],
            run["resumes"],
            run["checkpoints"],
            run["redundant_bytes"],
            f"{run['retry_wait_s']:.3f}",
            f"{run['disconnect_wait_s']:.3f}",
        ])
    plans = format_table(
        "Recordings under fault plans (vs. fault-free baseline bytes)",
        ["plan", "recording", "overhead", "retries", "timeouts", "resumes",
         "ckpts", "redundant B", "retry wait s", "disc wait s"], rows)
    verdict = ("all recordings byte-identical to the fault-free baseline"
               if summary["all_identical"]
               else "DIVERGENCE: at least one recording changed under faults")
    return "\n\n".join((header, plans, verdict))


def perf_summary_tables(doc: dict) -> str:
    """Render a ``BENCH_replay.json`` document (see
    :mod:`repro.analysis.perf`) as the wall-clock performance report:
    per-workload replay engine comparison, the MMU range walk, then §5
    encode throughput."""
    replay_rows = []
    for r in doc.get("replay", ()):
        identical = all(r["identical"].values())
        replay_rows.append([
            f"{r['workload']}/{r['recorder']}", r["entries"],
            r["legacy"]["median_s"] * 1e3,
            r["compiled"]["median_s"] * 1e3,
            r["compiled"]["entries_per_s"],
            f"{r['speedup_median']:.2f}x",
            f"{r['speedup_best']:.2f}x",
            "yes" if identical else "NO"])
    tables = [format_table(
        "Replay wall clock - legacy interpreter vs compiled program",
        ["workload", "entries", "legacy ms", "compiled ms",
         "entries/s", "speedup", "best", "identical"], replay_rows)]
    mmu_rows = []
    for m in doc.get("mmu", ()):
        if "skipped" in m:
            continue
        mmu_rows.append([
            f"{m['workload']}/{m['recorder']}", m["pages_mapped"],
            m["translations"],
            m["per_page"]["median_s"] * 1e3,
            m["range"]["median_s"] * 1e3,
            f"{m['speedup']:.1f}x",
            "yes" if m["tables_identical"] and m["translations_identical"]
            else "NO"])
    if mmu_rows:
        tables.append(format_table(
            "MMU wall clock - per-page reference vs range walk + bulk PTEs",
            ["workload", "pages mapped", "translations", "per-page ms",
             "range ms", "speedup", "identical"], mmu_rows))
    memsync_rows = []
    for m in doc.get("memsync", ()):
        memsync_rows.append([
            f"{m['workload']}/{m['recorder']}", m["steady_pages"],
            m["legacy"]["pages_per_s"],
            m["optimized"]["pages_per_s"],
            m["optimized"]["pages_skipped"],
            m["optimized"]["encodes"],
            f"{m['speedup']:.2f}x",
            "yes" if m["peer_views_equal"] else "NO"])
    if memsync_rows:
        tables.append(format_table(
            "Memsync encode wall clock - seed path vs single-encode+skip",
            ["workload", "pages", "seed pages/s", "opt pages/s",
             "skipped", "encodes", "speedup", "views equal"], memsync_rows))
    cold_rows = []
    for c in doc.get("cold_start", ()):
        identical = all(c["identical"].values())
        cold_rows.append([
            f"{c['workload']}/{c['recorder']}",
            c["artifact_bytes"] / 1024.0,
            c["cold"]["acquire_s"] * 1e3,
            c["store_hit"]["acquire_s"] * 1e3,
            c["warm"]["acquire_s"] * 1e6,
            f"{c['speedup_acquire']:.1f}x",
            f"{c['speedup_first_request']:.2f}x",
            "yes" if identical else "NO",
            "yes" if c["cross_tenant_rejected"] else "NO"])
    if cold_rows:
        tables.append(format_table(
            "Cold start - compile+publish vs artifact store hit",
            ["workload", "artifact kB", "cold ms", "store-hit ms",
             "warm us", "acquire", "e2e", "identical", "isolated"],
            cold_rows))
    return "\n\n".join(tables)


def store_summary_tables(doc: dict) -> str:
    """Render an artifact-store inventory (``repro store ls``/``gc``):
    an overview with the persisted counters, a per-tenant rollup, and
    the entry listing."""
    entries = doc.get("entries", ())
    stats = doc.get("stats", {}) or {}
    overview_rows = [
        ["root", doc.get("root", "")],
        ["artifacts", len(entries)],
        ["total size", f"{doc.get('total_bytes', 0) / 1024.0:.1f} kB"],
        ["hits", stats.get("hits", 0)],
        ["misses", stats.get("misses", 0)],
        ["publishes", stats.get("publishes", 0)],
        ["evictions", stats.get("evictions", 0)],
        ["corrupt rejected", stats.get("corrupt_rejected", 0)],
        ["bytes published", stats.get("bytes_published", 0)],
        ["bytes evicted", stats.get("bytes_evicted", 0)],
    ]
    tables = [format_table("Artifact store", ["metric", "value"],
                           overview_rows)]
    by_tenant: dict = {}
    for row in entries:
        agg = by_tenant.setdefault(
            row["tenant_id"] or "<unreadable>",
            {"artifacts": 0, "nbytes": 0, "workloads": set()})
        agg["artifacts"] += 1
        agg["nbytes"] += row["nbytes"]
        if row["workload"]:
            agg["workloads"].add(row["workload"])
    if by_tenant:
        tables.append(format_table(
            "Per tenant", ["tenant", "artifacts", "kB", "workloads"],
            [[tenant, agg["artifacts"], agg["nbytes"] / 1024.0,
              ",".join(sorted(agg["workloads"])) or "-"]
             for tenant, agg in sorted(by_tenant.items())]))
    if entries:
        tables.append(format_table(
            "Entries",
            ["tenant", "digest", "workload", "kB", "key"],
            [[row["tenant_id"] or "?", row["recording_digest"][:12],
              row["workload"] or "?", row["nbytes"] / 1024.0,
              f"c{row['compiler_version']}-s{row['schema_version']}"]
             for row in entries]))
    return "\n\n".join(tables)


def serve_summary_tables(summary: dict) -> str:
    """Render a serve run's summary dict (see
    :meth:`repro.serve.ServeMetrics.summary`) as the live-serving
    report: an overview table, wall-clock latency percentiles per link,
    and the planning oracle's predicted-vs-measured accuracy."""
    requests = summary["requests"]
    ledger = summary.get("ledger", {})
    overview_rows = [
        ["requests offered", requests["offered"]],
        ["requests completed", requests["completed"]],
        ["requests rejected", requests["rejected"]],
        ["requests aborted", requests["aborted"]],
        ["requests retried", requests["retried"]],
        ["throughput", f"{summary['throughput_rps']:.2f} req/s"],
        ["makespan", f"{summary['makespan_s']:.3f} s"],
        ["worker deaths", ledger.get("worker_deaths", 0)],
        ["failover requeues", ledger.get("failover_requeues", 0)],
        ["distinct workers", summary["workers"]["distinct_pids"]],
        ["mean batch", f"{summary['batching']['mean_batch']:.2f}"],
        ["identity digest", summary["identity_digest"][:16]],
    ]
    if "bit_identical" in summary:
        overview_rows.append(
            ["bit-identical vs reference",
             "yes" if summary["bit_identical"] else "NO"])
    overview = format_table("Serve overview", ["metric", "value"],
                            overview_rows)
    lat_rows = []
    for link, dist in sorted(summary["latency_s"]["by_link"].items()):
        lat_rows.append([link, dist["count"], dist["p50"] * 1e3,
                         dist["p95"] * 1e3, dist["p99"] * 1e3,
                         dist["mean"] * 1e3])
    overall = summary["latency_s"]["overall"]
    lat_rows.append(["all", overall["count"], overall["p50"] * 1e3,
                     overall["p95"] * 1e3, overall["p99"] * 1e3,
                     overall["mean"] * 1e3])
    latency = format_table(
        "Request latency by link (milliseconds, wall clock)",
        ["link", "n", "p50", "p95", "p99", "mean"], lat_rows)
    oracle_rows = []
    sections = sorted(summary["oracle"]["by_link"].items())
    sections.append(("all", summary["oracle"]["overall"]))
    for label, section in sections:
        oracle_rows.append([
            label,
            section["predicted_s"]["p99"] * 1e3,
            section["measured_s"]["p99"] * 1e3,
            section["abs_error_s"]["p99"] * 1e3,
            f"{section['measured_over_predicted']['p50']:.2f}x",
        ])
    oracle = format_table(
        "Planning oracle accuracy (p99 ms predicted vs measured)",
        ["link", "predicted", "measured", "abs error", "meas/pred p50"],
        oracle_rows)
    return "\n\n".join([overview, latency, oracle])


def save_report(name: str, text: str) -> str:
    """Append a rendered table to benchmarks/results/<name>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def check_summary_tables(report) -> str:
    """Render a :class:`repro.check.CheckReport` as the conformance
    report: per-rule finding counts with their paper sections, then the
    §4.3 poll-site inventory the discovery pass produced."""
    from repro.check.findings import RULES

    counts = report.counts_by_rule()
    suppressed: dict = {}
    for f in report.suppressed:
        suppressed[f.rule] = suppressed.get(f.rule, 0) + 1
    rows = []
    for rule, (section, description) in RULES.items():
        live = counts.get(rule, 0)
        if live == 0 and rule not in suppressed:
            continue
        rows.append([rule, section, live, suppressed.get(rule, 0),
                     description])
    if not rows:
        rows = [["(all rules)", "-", 0, len(report.suppressed), "clean"]]
    tables = [format_table(
        "Conformance findings",
        ["rule", "paper", "live", "suppressed", "description"],
        rows)]
    if report.poll_sites:
        tables.append(format_table(
            "Polling loops (§4.3 discovery)",
            ["site", "offset", "condition", "bound", "status"],
            [[f"{p.path.rsplit('/', 1)[-1]}:{p.line}", p.offset,
              p.condition, "?" if p.max_iters is None else p.max_iters,
              ("declared" if p.declared else "UNDECLARED")
              + ("+executed" if p.executed else "")]
             for p in sorted(report.poll_sites,
                             key=lambda p: (p.path, p.line))]))
    tables.append(
        f"{len(report.findings)} finding(s), {len(report.suppressed)} "
        f"suppressed, {len(report.baselined)} baselined, "
        f"{report.modules_scanned} module(s) scanned")
    return "\n\n".join(tables)
