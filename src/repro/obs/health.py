"""SLO health gating: machine-readable verdicts over the telemetry.

ProvMark's lesson (PAPERS.md) is that "did the fast path regress" must
be a machine-checkable verdict, not an eyeballed number.  This module
turns the passview telemetry into exactly that:

* :func:`evaluate_health` -- checks a metrics snapshot (plus span/
  journal bookkeeping and optional benchmark / crashtest documents)
  against an :class:`SLOPolicy`, yielding a :class:`HealthVerdict`
  whose ``ok`` maps straight onto a process exit code;
* :func:`compare_bench` -- per-suite deltas between two
  ``BENCH_results.json`` documents, failing on regression beyond a
  tolerance.  Gating metrics are *ratios* (speedups, overhead percent),
  which are normalized per run and therefore comparable across
  machines; absolute throughput is reported but never gated.

Pure functions over plain dicts: no clocks, no I/O, no imports from
the rest of ``repro`` (the obs leaf discipline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: The committed overhead budget (percent) for the enabled
#: journal+exporter stack on the ingest path (see
#: docs/OBSERVABILITY.md and benchmarks/bench_obs_overhead.py).
OVERHEAD_BUDGET_PCT = 5.0

#: Per-suite gating metric for :func:`compare_bench`: suite ->
#: (dotted path into the suite payload, direction).  ``higher`` means
#: regression when the current value falls below baseline*(1-tol);
#: ``lower`` means regression when it rises above
#: max(budget, baseline + slack).
COMPARE_METRICS = {
    "incremental_query": ("speedup", "higher"),
    "obs_overhead": ("overhead_pct", "lower"),
    "pql_perf": ("speedup", "higher"),
}

#: Informational (never gating) per-suite metrics worth reporting.
REPORT_METRICS = {
    "obs_overhead": ("disabled_overhead_pct",),
    "pql_perf": ("point_lookup.speedup", "ancestry.speedup",
                 "records_total"),
}


@dataclass(frozen=True)
class SLOPolicy:
    """The service-level objectives a healthy build must meet."""

    #: Finished spans silently evicted from the ring (must be 0: a
    #: truncated trace lies about what the system did).
    max_dropped_spans: int = 0
    #: Journal ring overflows.  None = report only (the journal is
    #: sampled and bounded by design; drops are a tuning signal).
    max_journal_dropped: Optional[int] = None
    #: Query latency SLOs (wall seconds, from the pql
    #: ``execute_wall_s`` histogram).
    max_query_p50_s: float = 0.5
    max_query_p99_s: float = 2.0
    #: WAP violations from a crashtest report (must be 0: the paper's
    #: core invariant).
    max_wap_violations: int = 0
    #: Obs overhead ceiling, checked when the benchmark document
    #: carries the obs_overhead suite.
    max_obs_overhead_pct: float = OVERHEAD_BUDGET_PCT
    #: Query-planner speedup floor (min of indexed point lookups and
    #: materialized ancestry closure vs the naive path), checked when
    #: the benchmark document carries the pql_perf suite.
    min_pql_speedup: float = 5.0


@dataclass
class HealthCheck:
    """One SLO probe: what was measured, against what limit."""

    name: str
    ok: bool
    value: object
    limit: object
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "value": self.value,
                "limit": self.limit, "detail": self.detail}


@dataclass
class HealthVerdict:
    """The machine-readable outcome ``repro health`` prints and gates on."""

    checks: list[HealthCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[HealthCheck]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "checks": [check.to_dict() for check in self.checks]}

    def render_text(self) -> str:
        lines = [f"health: {'OK' if self.ok else 'FAIL'} "
                 f"({len(self.checks)} checks, "
                 f"{len(self.failures)} failing)"]
        for check in self.checks:
            status = "ok  " if check.ok else "FAIL"
            limit = "-" if check.limit is None else check.limit
            detail = f"  ({check.detail})" if check.detail else ""
            lines.append(f"  {status} {check.name:24s} "
                         f"value={check.value} limit={limit}{detail}")
        return "\n".join(lines)


def _pql_percentile(snapshot: dict, key: str) -> float:
    return (snapshot.get("pql", {}).get("histograms", {})
            .get("execute_wall_s", {}).get(key, 0.0))


def evaluate_health(snapshot: dict, dropped_spans: int = 0,
                    journal_stats: Optional[dict] = None,
                    bench: Optional[dict] = None,
                    crashtest: Optional[dict] = None,
                    slos: Optional[SLOPolicy] = None) -> HealthVerdict:
    """Check the telemetry against the SLO policy.

    ``snapshot`` is a metrics snapshot; ``bench`` a merged
    ``BENCH_results.json`` document and ``crashtest`` a
    ``repro crashtest --json`` report, both optional -- absent inputs
    mark their checks ok with a "not supplied" detail rather than
    failing, so the verdict composes with whatever artifacts a CI job
    actually produced.
    """
    slos = slos or SLOPolicy()
    verdict = HealthVerdict()
    checks = verdict.checks

    checks.append(HealthCheck(
        "span_buffer_drops", dropped_spans <= slos.max_dropped_spans,
        dropped_spans, slos.max_dropped_spans,
        "finished spans evicted from the tracer ring"))

    journal_dropped = (journal_stats or {}).get("events_dropped", 0)
    journal_ok = (slos.max_journal_dropped is None
                  or journal_dropped <= slos.max_journal_dropped)
    checks.append(HealthCheck(
        "journal_drops", journal_ok, journal_dropped,
        slos.max_journal_dropped, "journal ring overflows"))

    p50 = _pql_percentile(snapshot, "p50")
    p99 = _pql_percentile(snapshot, "p99")
    checks.append(HealthCheck(
        "query_p50_s", p50 <= slos.max_query_p50_s, round(p50, 6),
        slos.max_query_p50_s, "pql execute_wall_s p50"))
    checks.append(HealthCheck(
        "query_p99_s", p99 <= slos.max_query_p99_s, round(p99, 6),
        slos.max_query_p99_s, "pql execute_wall_s p99"))

    if crashtest is not None:
        violations = crashtest.get("totals", {}).get("wap_violations", 0)
        checks.append(HealthCheck(
            "wap_violations", violations <= slos.max_wap_violations,
            violations, slos.max_wap_violations,
            "crash points that broke write-ahead provenance"))
    else:
        checks.append(HealthCheck(
            "wap_violations", True, None, slos.max_wap_violations,
            "crashtest report not supplied"))

    suites = (bench or {}).get("suites", {})
    obs_suite = suites.get("obs_overhead")
    if obs_suite is not None:
        overhead = obs_suite.get("overhead_pct", 0.0)
        checks.append(HealthCheck(
            "obs_overhead_pct", overhead <= slos.max_obs_overhead_pct,
            round(overhead, 2), slos.max_obs_overhead_pct,
            "journal+exporters cost on the ingest path"))

    pql_suite = suites.get("pql_perf")
    if pql_suite is not None:
        speedup = pql_suite.get("speedup", 0.0)
        point = pql_suite.get("point_lookup", {}).get("speedup", 0.0)
        ancestry = pql_suite.get("ancestry", {}).get("speedup", 0.0)
        checks.append(HealthCheck(
            "pql_speedup", speedup >= slos.min_pql_speedup,
            round(speedup, 2), slos.min_pql_speedup,
            f"planner vs naive (point {point:.1f}x, "
            f"ancestry {ancestry:.1f}x)"))
    else:
        checks.append(HealthCheck(
            "pql_speedup", True, None, slos.min_pql_speedup,
            "pql benchmark results not supplied"))

    return verdict


# -- benchmark trajectory comparison ------------------------------------------

def _dig(payload: dict, path: str):
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value if isinstance(value, (int, float)) else None


def compare_bench(baseline: dict, current: dict,
                  tolerance: float = 0.25,
                  overhead_slack_pct: float = 2.0) -> dict:
    """Per-suite deltas between two BENCH_results documents.

    Returns ``{"ok", "suites": {name: {...}}, "regressions": [...]}``.
    A suite regresses when its gating metric (see
    :data:`COMPARE_METRICS`) moves the wrong way beyond the tolerance:
    speedups may not fall below ``baseline * (1 - tolerance)``;
    overheads may not rise above ``max(budget, baseline + slack)``.
    Suites with no baseline entry are reported as ``new`` and never
    gate -- the first run commits the baseline.
    """
    base_suites = (baseline or {}).get("suites", {})
    cur_suites = (current or {}).get("suites", {})
    report: dict = {"ok": True, "tolerance": tolerance,
                    "suites": {}, "regressions": []}
    for name in sorted(cur_suites):
        if name not in COMPARE_METRICS:
            continue
        path, direction = COMPARE_METRICS[name]
        cur_value = _dig(cur_suites[name], path)
        if cur_value is None:
            continue
        entry: dict = {"metric": path, "current": cur_value,
                       "direction": direction}
        base_value = _dig(base_suites.get(name, {}), path)
        if base_value is None:
            entry["status"] = "new"
            entry["baseline"] = None
        else:
            entry["baseline"] = base_value
            entry["delta_pct"] = (100.0 * (cur_value - base_value)
                                  / base_value if base_value else 0.0)
            if direction == "higher":
                floor = base_value * (1.0 - tolerance)
                entry["floor"] = floor
                regressed = cur_value < floor
            else:
                ceiling = max(OVERHEAD_BUDGET_PCT,
                              base_value + overhead_slack_pct)
                entry["ceiling"] = ceiling
                regressed = cur_value > ceiling
            entry["status"] = "regressed" if regressed else "ok"
            if regressed:
                report["ok"] = False
                report["regressions"].append(name)
        for extra in REPORT_METRICS.get(name, ()):
            value = _dig(cur_suites[name], extra)
            if value is not None:
                entry.setdefault("info", {})[extra] = value
        report["suites"][name] = entry
    return report


def render_compare(report: dict) -> str:
    """Human-readable rendering of a :func:`compare_bench` report."""
    lines = [f"bench compare: {'OK' if report['ok'] else 'REGRESSED'} "
             f"(tolerance {report['tolerance']:.0%})"]
    for name, entry in sorted(report["suites"].items()):
        status = entry["status"]
        current = entry["current"]
        if entry.get("baseline") is None:
            lines.append(f"  new  {name:20s} {entry['metric']}="
                         f"{current:.3g} (no baseline; this run becomes "
                         f"the baseline)")
            continue
        marker = "FAIL" if status == "regressed" else "ok  "
        lines.append(f"  {marker} {name:20s} {entry['metric']}: "
                     f"{entry['baseline']:.3g} -> {current:.3g} "
                     f"({entry['delta_pct']:+.1f}%)")
    return "\n".join(lines)
