"""Unit tests for the metrics half of passmon (repro.obs.metrics)."""

import pytest

from repro.obs import FIGURE2_LAYERS, LAYERS, Observability
from repro.obs.metrics import HISTOGRAM_CAPACITY, Histogram, MetricsRegistry


def counter(reg, layer, name):
    """One counter as the snapshot reports it (0 when never set)."""
    return reg.snapshot().get(layer, {}).get("counters", {}).get(name, 0)


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("pql", "queries")
        reg.inc("pql", "queries", 4)
        assert counter(reg, "pql", "queries") == 5

    def test_unset_counter_reads_zero(self):
        assert counter(MetricsRegistry(), "pql", "nothing") == 0

    def test_volumes_fold_into_layer_total(self):
        reg = MetricsRegistry()
        reg.inc("lasagna", "flushes", 2, volume="pass")
        reg.inc("lasagna", "flushes", 3, volume="export")
        snap = reg.snapshot()
        assert snap["lasagna"]["counters"]["flushes"] == 5
        volumes = snap["lasagna"]["volumes"]
        assert volumes["pass"]["counters"]["flushes"] == 2
        assert volumes["export"]["counters"]["flushes"] == 3

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("pql", "queries")
        reg.observe("pql", "wall", 0.5)
        assert counter(reg, "pql", "queries") == 0
        assert reg.snapshot() == {}


class TestHistogram:
    def test_summary_on_known_data(self):
        h = Histogram()
        for v in range(1, 101):        # 1..100
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["sum"] == pytest.approx(5050.0)
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        # Linear interpolation over sorted samples.
        assert s["p50"] == pytest.approx(50.5)
        assert s["p90"] == pytest.approx(90.1)
        assert s["p99"] == pytest.approx(99.01)

    def test_single_sample(self):
        h = Histogram()
        h.observe(3.0)
        s = h.summary()
        assert s["p50"] == s["p99"] == 3.0

    def test_empty_summary_is_all_zeros(self):
        s = Histogram().summary()
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}

    def test_empty_percentile_raises_clearly(self):
        with pytest.raises(ValueError, match="empty histogram"):
            Histogram().percentile(50)

    def test_out_of_range_percentile_raises(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)
        # Range is validated even on an empty histogram.
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_ring_bounds_samples_but_not_totals(self):
        h = Histogram()
        n = HISTOGRAM_CAPACITY + 500
        for v in range(n):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == n                 # exact even past capacity
        assert s["max"] == float(n - 1)
        assert len(h._samples) == HISTOGRAM_CAPACITY

    def test_percentile_clamps(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0


class TestCollectors:
    def test_collector_harvested_at_snapshot(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.add_collector("interceptor", lambda: {"events": state["n"]})
        state["n"] = 9
        assert reg.snapshot()["interceptor"]["counters"]["events"] == 9

    def test_collector_merges_with_direct_counters(self):
        reg = MetricsRegistry()
        reg.add_collector("waldo", lambda: {"drains": 2})
        reg.inc("waldo", "queries", 1)
        counters = reg.snapshot()["waldo"]["counters"]
        assert counters == {"drains": 2, "queries": 1}

    def test_per_volume_collector(self):
        reg = MetricsRegistry()
        reg.add_collector("lasagna", lambda: {"flushes": 4}, volume="pass")
        snap = reg.snapshot()["lasagna"]
        assert snap["counters"]["flushes"] == 4
        assert snap["volumes"]["pass"]["counters"]["flushes"] == 4

    def test_disabled_registry_ignores_collectors(self):
        reg = MetricsRegistry(enabled=False)
        reg.add_collector("waldo", lambda: {"drains": 1})
        assert reg.snapshot() == {}


class TestDeclaredLayers:
    def test_declared_layers_always_present(self):
        reg = MetricsRegistry(layers=LAYERS)
        snap = reg.snapshot()
        for layer in LAYERS:
            assert layer in snap
            assert snap[layer]["counters"] == {}

    def test_observability_declares_the_contract(self):
        snap = Observability().stats()
        for layer in FIGURE2_LAYERS:
            assert layer in snap


class TestObservabilityFacade:
    def test_null_style_instance_is_inert(self):
        obs = Observability(metrics_enabled=False, trace_enabled=False)
        obs.inc("pql", "queries")
        with obs.span("pql.execute", layer="pql") as span:
            span.tag("rows", 1)
        assert obs.stats() == {}
        assert obs.trace() == []
