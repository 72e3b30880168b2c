"""Unit tests for the tracing half of passmon (repro.obs.trace)."""

from repro.obs.trace import NULL_SPAN, Tracer


class FakeClock:
    """Scriptable simulated clock for timing assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestNesting:
    def test_parent_child_links_and_depth(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)

    def test_children_finish_before_parents(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s["name"] for s in tracer.export()["spans"]] == ["inner", "outer"]

    def test_siblings_share_a_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == parent.span_id

    def test_top_level_span_has_no_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("solo") as span:
            pass
        assert span.parent_id is None


class TestTiming:
    def test_sim_elapsed_from_bound_clock(self):
        clock = FakeClock()
        tracer = Tracer(enabled=True, sim_now=clock)
        with tracer.span("work") as span:
            clock.now = 2.5
        assert span.sim_elapsed == 2.5

    def test_bind_clock_after_construction(self):
        clock = FakeClock()
        tracer = Tracer(enabled=True)
        tracer.bind_clock(clock)
        clock.now = 1.0
        with tracer.span("work") as span:
            clock.now = 4.0
        assert span.sim_start == 1.0
        assert span.sim_elapsed == 3.0

    def test_wall_elapsed_nonnegative(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work") as span:
            pass
        assert span.wall_elapsed >= 0.0


class TestRing:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(enabled=True, capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s["name"] for s in tracer.export()["spans"]] == ["s2", "s3", "s4"]

    def test_evictions_are_counted_as_drops(self):
        tracer = Tracer(enabled=True, capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped_spans == 2
        assert tracer.export()["dropped_spans"] == 2

    def test_no_drops_below_capacity(self):
        tracer = Tracer(enabled=True, capacity=3)
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped_spans == 0


class TestCurrentIds:
    def test_outside_any_span(self):
        tracer = Tracer(enabled=True)
        assert tracer.current_ids() == (None, None)

    def test_trace_id_is_the_root_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("leaf") as leaf:
                trace_id, span_id = tracer.current_ids()
        assert trace_id == root.span_id
        assert span_id == leaf.span_id


class TestExport:
    def test_export_schema(self):
        clock = FakeClock()
        tracer = Tracer(enabled=True, sim_now=clock)
        with tracer.span("drain", layer="waldo", volume="pass") as span:
            span.tag("records", 7)
        document = tracer.export()
        assert document["dropped_spans"] == 0
        (exported,) = document["spans"]
        assert exported["name"] == "drain"
        assert exported["layer"] == "waldo"
        assert exported["tags"] == {"volume": "pass", "records": 7}
        for key in ("span_id", "parent_id", "depth", "sim_start",
                    "sim_elapsed", "wall_start", "wall_elapsed"):
            assert key in exported


class TestDisabled:
    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.tag("k", "v")        # accepted, discarded
        assert Tracer(enabled=False).export()["spans"] == []
