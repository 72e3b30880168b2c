"""Unit tests for the event journal (repro.obs.journal)."""

import json

import pytest

from repro.obs import Observability
from repro.obs.journal import EventJournal
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestEmit:
    def test_disabled_journal_records_nothing(self):
        journal = EventJournal(enabled=False)
        assert journal.emit("log.group_commit", records=5) is None
        assert journal.events() == []
        assert journal.stats()["events_emitted"] == 0

    def test_event_schema(self):
        clock = FakeClock()
        clock.now = 1.5
        journal = EventJournal(enabled=True, sim_now=clock)
        event = journal.emit("waldo.drain", layer="waldo", volume="pass",
                             records=25)
        assert event["kind"] == "waldo.drain"
        assert event["layer"] == "waldo"
        assert event["volume"] == "pass"
        assert event["records"] == 25
        assert event["sim_t"] == 1.5
        assert event["seq"] == 1
        assert event["trace_id"] is None and event["span_id"] is None

    def test_sequence_numbers_are_monotonic(self):
        journal = EventJournal(enabled=True)
        seqs = [journal.emit("k")["seq"] for _ in range(3)]
        assert seqs == [1, 2, 3]

    def test_kind_filter(self):
        journal = EventJournal(enabled=True)
        journal.emit("a")
        journal.emit("b")
        journal.emit("a")
        assert [e["kind"] for e in journal.events("a")] == ["a", "a"]


class TestSampling:
    def test_counter_sampling_keeps_one_in_n(self):
        journal = EventJournal(enabled=True, sample_interval=3)
        for _ in range(9):
            journal.emit("hot.kind")
        assert len(journal.events()) == 3        # 1st, 4th, 7th
        assert journal.stats()["events_sampled_out"] == 6

    def test_sampling_is_per_kind(self):
        journal = EventJournal(enabled=True, sample_interval=2)
        journal.emit("a")          # kept (1st a)
        journal.emit("b")          # kept (1st b)
        journal.emit("a")          # sampled out
        journal.emit("b")          # sampled out
        assert {e["kind"] for e in journal.events()} == {"a", "b"}
        assert len(journal.events()) == 2

    def test_always_bypasses_sampling(self):
        journal = EventJournal(enabled=True, sample_interval=100)
        for _ in range(5):
            journal.emit("fault.fired", always=True)
        assert len(journal.events()) == 5

    def test_rejects_zero_interval(self):
        with pytest.raises(ValueError):
            EventJournal(sample_interval=0)


class TestRing:
    def test_overflow_counts_drops(self):
        journal = EventJournal(enabled=True, capacity=3)
        for _ in range(5):
            journal.emit("k")
        assert len(journal.events()) == 3
        assert journal.stats()["events_dropped"] == 2
        # The retained window is the newest events.
        assert [e["seq"] for e in journal.events()] == [3, 4, 5]


class TestCorrelation:
    def test_events_carry_the_open_span_ids(self):
        tracer = Tracer(enabled=True)
        journal = EventJournal(enabled=True)
        journal.bind_tracer(tracer)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                event = journal.emit("k")
        assert event["trace_id"] == outer.span_id
        assert event["span_id"] == inner.span_id

    def test_observability_wires_tracer_and_journal(self):
        obs = Observability(trace_enabled=True, journal_enabled=True)
        with obs.span("work", layer="waldo"):
            obs.event("waldo.drain", layer="waldo")
        (event,) = obs.journal_events()
        assert event["trace_id"] is not None
        assert event["span_id"] is not None


class TestSlowQueries:
    def test_fast_query_not_recorded(self):
        journal = EventJournal(enabled=True, slow_query_threshold_s=0.05)
        assert journal.slow_query("select F", 0.001, cache_hit=True) is None
        assert journal.events() == []

    def test_slow_query_recorded_with_plan_and_cache_status(self):
        journal = EventJournal(enabled=True, slow_query_threshold_s=0.05)
        event = journal.slow_query("select F from Provenance.file as F",
                                   0.2, cache_hit=False, rows=7,
                                   plan="<Query select F>")
        assert event["kind"] == "pql.slow_query"
        assert event["wall_s"] == 0.2
        assert event["cache_hit"] is False
        assert event["rows"] == 7
        assert event["plan"] == "<Query select F>"
        assert journal.events() == [event]
        assert journal.stats()["slow_queries_recorded"] == 1

    def test_slow_queries_bypass_sampling(self):
        journal = EventJournal(enabled=True, sample_interval=100,
                               slow_query_threshold_s=0.0)
        for _ in range(5):
            journal.slow_query("q", 0.1, cache_hit=True)
        assert len(journal.events("pql.slow_query")) == 5


class TestExport:
    def test_jsonl_round_trips(self):
        journal = EventJournal(enabled=True)
        journal.emit("a", layer="waldo", records=1)
        journal.emit("b", layer="pql")
        lines = journal.to_jsonl().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [e["kind"] for e in parsed] == ["a", "b"]

    def test_jsonl_is_deterministic(self):
        journal = EventJournal(enabled=True)
        journal.emit("a", zebra=1, alpha=2)
        assert journal.to_jsonl() == journal.to_jsonl()


class TestFacade:
    def test_event_facade_guards_on_enabled(self):
        obs = Observability(journal_enabled=False)
        obs.event("k", layer="waldo")
        assert obs.journal_events() == []
