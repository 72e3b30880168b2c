"""Unit tests for SLO health gating (repro.obs.health)."""

from repro.obs.health import (
    OVERHEAD_BUDGET_PCT,
    SLOPolicy,
    compare_bench,
    evaluate_health,
    render_compare,
)


def snapshot_with_latencies(p50: float, p99: float) -> dict:
    return {"pql": {"counters": {}, "gauges": {}, "histograms": {
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

    def test_obs_overhead_from_bench(self):
        bench = {"suites": {"obs_overhead": {"overhead_pct": 9.0}}}
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05),
                                  bench=bench)
        assert [f.name for f in verdict.failures] == ["obs_overhead_pct"]

    def test_absent_inputs_are_ok_not_failing(self):
        verdict = evaluate_health({})
        assert verdict.ok
        by_name = {c.name: c for c in verdict.checks}
        assert "not supplied" in by_name["wap_violations"].detail
        assert "not supplied" in by_name["pql_speedup"].detail

    def test_verdict_serializes(self):
        verdict = evaluate_health(snapshot_with_latencies(0.01, 0.05))
        document = verdict.to_dict()
        assert document["ok"] is True
        assert all(set(c) == {"name", "ok", "value", "limit", "detail"}
                   for c in document["checks"])
        assert "health: OK" in verdict.render_text()


BASELINE = {"suites": {
    "pql_perf": {"speedup": 4.0, "point_lookup": {"speedup": 60.0}},
    "obs_overhead": {"overhead_pct": 2.0, "disabled_overhead_pct": 0.5},
}}


class TestCompareBench:
    def test_no_change_is_ok(self):
        report = compare_bench(BASELINE, BASELINE)
        assert report["ok"]
        assert report["regressions"] == []
        assert report["suites"]["pql_perf"]["status"] == "ok"

    def test_speedup_regression_beyond_tolerance(self):
        current = {"suites": {"pql_perf": {"speedup": 2.0}}}
        report = compare_bench(BASELINE, current, tolerance=0.25)
        assert not report["ok"]
        assert report["regressions"] == ["pql_perf"]
        assert report["suites"]["pql_perf"]["status"] == "regressed"

    def test_speedup_drop_within_tolerance_is_ok(self):
        current = {"suites": {"pql_perf": {"speedup": 3.5}}}
        report = compare_bench(BASELINE, current, tolerance=0.25)
        assert report["ok"]

    def test_overhead_within_budget_never_regresses(self):
        # Baseline 2% -> current 4.9%: still under the 5% budget, ok.
        current = {"suites": {"obs_overhead": {"overhead_pct": 4.9}}}
        report = compare_bench(BASELINE, current)
        assert report["ok"]

    def test_overhead_above_budget_and_slack_regresses(self):
        current = {"suites": {"obs_overhead": {
            "overhead_pct": OVERHEAD_BUDGET_PCT + 3.0}}}
        report = compare_bench(BASELINE, current)
        assert not report["ok"]
        assert report["regressions"] == ["obs_overhead"]

    def test_new_suite_never_gates(self):
        current = {"suites": {"pql_perf": {"speedup": 0.1}}}
        report = compare_bench({}, current)
        assert report["ok"]
        assert report["suites"]["pql_perf"]["status"] == "new"

    def test_unknown_suites_are_ignored(self):
        current = {"suites": {"workloads": {"anything": 1}}}
        report = compare_bench(BASELINE, current)
        assert report["ok"]
        assert "workloads" not in report["suites"]

    def test_info_metrics_reported(self):
        report = compare_bench(BASELINE, BASELINE)
        info = report["suites"]["pql_perf"]["info"]
        assert info["point_lookup.speedup"] == 60.0

    def test_render_compare(self):
        current = {"suites": {"pql_perf": {"speedup": 2.0}}}
        text = render_compare(compare_bench(BASELINE, current))
        assert "REGRESSED" in text
        assert "pql_perf" in text
        new_text = render_compare(compare_bench({}, current))
        assert "no baseline" in new_text
