"""Unit tests for SLO health gating (repro.obs.health)."""

import dataclasses
import os

import pytest

from repro.obs.health import SLOPolicy, evaluate_health

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "docs", "OBSERVABILITY.md")


def snapshot_with_latencies(p50: float, p99: float) -> dict:
    return {"pql": {"counters": {}, "histograms": {
        "execute_wall_s": {"count": 10, "sum": p50 * 10, "min": p50,
                           "max": p99, "mean": p50, "p50": p50,
                           "p90": p99, "p99": p99}}}}


class TestEvaluateHealth:
    def test_healthy_snapshot_passes(self):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05))
        assert verdict.ok
        assert verdict.failures == []

    def test_dropped_spans_breach(self):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05),
                                  dropped_spans=3)
        assert not verdict.ok
        (failure,) = verdict.failures
        assert failure.name == "span_buffer_drops"
        assert failure.value == 3

    def test_latency_slo_breach(self):
        verdict = evaluate_health(
            snapshot_with_latencies(0.01, 5.0),
            slos=SLOPolicy(max_query_p99_s=2.0))
        assert [f.name for f in verdict.failures] == ["query_p99_s"]

    def test_journal_drops_report_only_by_default(self):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05),
                                  journal_stats={"events_dropped": 99})
        assert verdict.ok                      # limit None = report only

    def test_journal_drops_gate_when_limited(self):
        verdict = evaluate_health(
            snapshot_with_latencies(0.01, 0.05),
            journal_stats={"events_dropped": 99},
            slos=SLOPolicy(max_journal_dropped=0))
        assert [f.name for f in verdict.failures] == ["journal_drops"]

    def test_wap_violations_from_crashtest(self):
        verdict = evaluate_health(
            snapshot_with_latencies(0.01, 0.05),
            crashtest={"totals": {"wap_violations": 2}})
        assert [f.name for f in verdict.failures] == ["wap_violations"]

    @pytest.mark.parametrize("report", [
        {}, {"totals": {}}, {"totals": {"wap_violations": None}},
        {"totals": {"wap_violations": "0"}},
        {"totals": {"wap_violations": False}}, [], {"totals": []}])
    def test_crashtest_without_a_count_fails(self, report):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05),
                                  crashtest=report)
        assert [f.name for f in verdict.failures] == ["wap_violations"]

    def test_absent_inputs_are_ok_not_failing(self):
        verdict = evaluate_health({})
        assert verdict.ok
        by_name = {c.name: c for c in verdict.checks}
        assert "not supplied" in by_name["wap_violations"].detail

    def test_verdict_serializes(self):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05))
        document = verdict.to_dict()
        assert document["ok"] is True
        assert all(set(c) == {"name", "ok", "value", "limit", "detail"}
                   for c in document["checks"])
        assert "health: OK" in verdict.render_text()


def doc_slo_table() -> list[tuple[str, str]]:
    """(field, default) rows of the SLO table in docs/OBSERVABILITY.md."""
    with open(DOC, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| `SLOPolicy` field"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((cells[0].strip("`"), cells[1].strip("`")))
    return rows


def test_doc_slo_table_is_the_policy():
    # SLOPolicy is the one declaration of every limit; the documented
    # table may only mirror it, names and defaults in field order.
    assert doc_slo_table() == [(field.name, repr(field.default))
                               for field in dataclasses.fields(SLOPolicy)]
