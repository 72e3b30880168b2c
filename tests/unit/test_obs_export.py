"""Unit tests for the exporters (repro.obs.export)."""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
    prom_label_value,
    prom_name,
    prometheus_text,
)
from repro.obs.trace import Tracer


def traced_spans():
    """A small real span tree: root -> (child-a, child-b)."""
    tracer = Tracer(enabled=True)
    with tracer.span("root", layer="system"):
        with tracer.span("child-a", layer="waldo", volume="pass") as a:
            a.tag("records", 3)
        with tracer.span("child-b", layer="pql"):
            pass
    return tracer.export()["spans"]


SNAPSHOT = {
    "lasagna": {
        "counters": {"flushes": 5, "batch_records": 23},
        "histograms": {},
        "volumes": {
            "pass": {"counters": {"flushes": 3, "batch_records": 23},
                     "histograms": {}},
            "export": {"counters": {"flushes": 2}, "histograms": {}},
        },
    },
    "pql": {
        "counters": {"queries_executed": 4},
        "histograms": {
            "execute_wall_s": {"count": 4, "sum": 0.4, "min": 0.05,
                               "max": 0.2, "mean": 0.1, "p50": 0.08,
                               "p90": 0.18, "p99": 0.2},
        },
    },
}


class TestChromeTrace:
    def test_document_shape(self):
        spans = traced_spans()
        document = chrome_trace(spans)
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"            # process_name metadata
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"root", "child-a", "child-b"}
        for event in xs:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1

    def test_children_sit_on_deeper_tid(self):
        spans = traced_spans()
        events = {e["name"]: e for e in chrome_trace(spans)["traceEvents"]
                  if e["ph"] == "X"}
        assert events["root"]["tid"] == 1
        assert events["child-a"]["tid"] == 2

    def test_parent_id_and_tags_in_args(self):
        spans = traced_spans()
        events = {e["name"]: e for e in chrome_trace(spans)["traceEvents"]
                  if e["ph"] == "X"}
        root_id = events["root"]["args"]["span_id"]
        assert events["child-a"]["args"]["parent_id"] == root_id
        assert events["child-a"]["args"]["records"] == 3

    def test_sim_clock_selectable(self):
        spans = traced_spans()
        document = chrome_trace(spans, clock="sim")
        assert document["otherData"]["clock"] == "sim"
        with pytest.raises(ValueError):
            chrome_trace(spans, clock="nonsense")

    def test_json_is_deterministic_and_parseable(self):
        spans = traced_spans()
        first = chrome_trace_json(spans)
        second = chrome_trace_json(spans)
        assert first == second                   # byte-identical
        parsed = json.loads(first)
        assert parsed["otherData"]["spans"] == 3


class TestPromNames:
    def test_dotted_parts_join_with_underscores(self):
        assert prom_name("repro", "execute_wall_s") == "repro_execute_wall_s"

    def test_illegal_characters_collapse(self):
        assert prom_name("repro", "a.b-c d") == "repro_a_b_c_d"

    def test_leading_digit_gains_an_underscore(self):
        assert prom_name("9lives") == "_9lives"

    def test_empty_input(self):
        assert prom_name("") == "_"


class TestPromEscaping:
    def test_backslash_quote_newline(self):
        assert prom_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_unusual_label_values_survive_exposition(self):
        snapshot = {
            'we"ird\nlayer\\name': {
                "counters": {"events": 1}, "histograms": {},
            },
        }
        text = prometheus_text(snapshot)
        assert 'layer="we\\"ird\\nlayer\\\\name"' in text
        # No raw newline may survive inside a sample line.
        for line in text.splitlines():
            assert line.startswith("#") or " " in line


class TestPrometheusText:
    def test_exposition_is_deterministic(self):
        assert prometheus_text(SNAPSHOT) == prometheus_text(SNAPSHOT)

    def test_counters_carry_layer_and_volume_labels(self):
        text = prometheus_text(SNAPSHOT)
        assert 'repro_flushes{layer="lasagna"} 5' in text
        assert 'repro_flushes{layer="lasagna",volume="pass"} 3' in text
        assert 'repro_flushes{layer="lasagna",volume="export"} 2' in text

    def test_histograms_become_summaries(self):
        text = prometheus_text(SNAPSHOT)
        assert "# TYPE repro_execute_wall_s summary" in text
        assert ('repro_execute_wall_s{layer="pql",quantile="0.99"} 0.2'
                in text)
        assert 'repro_execute_wall_s_sum{layer="pql"} 0.4' in text
        assert 'repro_execute_wall_s_count{layer="pql"} 4' in text

    def test_type_comment_precedes_samples(self):
        lines = prometheus_text(SNAPSHOT).splitlines()
        seen_types = set()
        for line in lines:
            if line.startswith("# TYPE "):
                seen_types.add(line.split()[2])
            else:
                metric = line.split("{")[0].split(" ")[0]
                base = metric
                for suffix in ("_sum", "_count"):
                    if metric.endswith(suffix) \
                            and metric[:-len(suffix)] in seen_types:
                        base = metric[:-len(suffix)]
                assert base in seen_types, line

    def test_every_sample_line_parses(self):
        for line in prometheus_text(SNAPSHOT).splitlines():
            if line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels
            float(value)                     # must be numeric


class TestCollapsedStacks:
    def test_folded_paths_and_self_time(self):
        spans = traced_spans()
        lines = collapsed_stacks(spans).splitlines()
        paths = [line.rsplit(" ", 1)[0] for line in lines]
        assert "system:root" in paths
        assert "system:root;waldo:child-a" in paths
        assert "system:root;pql:child-b" in paths
        for line in lines:
            int(line.rsplit(" ", 1)[1])      # integer microseconds

    def test_output_is_deterministic(self):
        spans = traced_spans()
        assert collapsed_stacks(spans) == collapsed_stacks(spans)

    def test_self_time_excludes_children(self):
        # Root's self time must be <= its elapsed minus children's.
        spans = traced_spans()
        by_name = {s["name"]: s for s in spans}
        lines = dict(line.rsplit(" ", 1)
                     for line in collapsed_stacks(spans).splitlines())
        root_self = int(lines["system:root"])
        root_total = int(round(by_name["root"]["wall_elapsed"] * 1e6))
        assert root_self <= root_total

    def test_empty_input(self):
        assert collapsed_stacks([]) == ""
