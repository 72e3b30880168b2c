"""SLO health gating: machine-readable verdicts over the telemetry.

ProvMark's lesson (PAPERS.md) is that "is this build healthy" must be
a machine-checkable verdict, not an eyeballed number.
:func:`evaluate_health` checks a metrics snapshot (plus span/journal
bookkeeping and an optional crashtest report) against an
:class:`SLOPolicy`, yielding a :class:`HealthVerdict` whose ``ok`` maps
straight onto a process exit code.  Performance is not gated here: the
benchmark ledger (BENCHMARK.json, ``benchmarks/e2e/``) is the one place
a performance number is declared.

Pure functions over plain dicts: no clocks, no I/O, no imports from
the rest of ``repro`` (the obs leaf discipline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


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
                    crashtest: Optional[dict] = None,
                    slos: Optional[SLOPolicy] = None) -> HealthVerdict:
    """Check the telemetry against the SLO policy.

    ``snapshot`` is a metrics snapshot; ``crashtest`` an optional
    ``repro crashtest`` report -- absent, its check is marked ok with a
    "not supplied" detail rather than failing, so the verdict composes
    with whatever artifacts a CI job actually produced.  A report
    without a ``totals.wap_violations`` count fails the check: it
    proves nothing about write-ahead provenance.
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
        totals = crashtest.get("totals") if isinstance(crashtest, dict) \
            else None
        violations = totals.get("wap_violations") \
            if isinstance(totals, dict) else None
        counted = type(violations) is int
        checks.append(HealthCheck(
            "wap_violations",
            counted and violations <= slos.max_wap_violations,
            violations, slos.max_wap_violations,
            "crash points that broke write-ahead provenance" if counted
            else "crashtest report has no totals.wap_violations count"))
    else:
        checks.append(HealthCheck(
            "wap_violations", True, None, slos.max_wap_violations,
            "crashtest report not supplied"))

    return verdict
