"""Fault firings land in the event journal, correlated to spans.

A crashtest post-mortem needs to answer "which fault fired, at which
site, inside which span" from the journal alone: the injector emits a
``fault.fired`` event (unsampled) before raising, stamped with the
trace/span ids of whatever span was open at that moment.
"""

import pytest

from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.storage.recovery import recover
from repro.system import System


def write_files(system: System, count: int = 3) -> None:
    with system.process(argv=["writer"]) as proc:
        for index in range(count):
            fd = proc.open(f"/pass/f{index}", "w")
            proc.write(fd, b"payload" * 8)
            proc.close(fd)


class TestFaultFiringsAreJournaled:
    def test_crash_event_carries_site_hit_kind_and_trace(self):
        plan = FaultPlan().add("waldo.drain.segment", "crash", nth=1)
        injector = FaultInjector(plan)
        system = System.boot(tracing=True, journal=True, faults=injector)
        write_files(system)
        with pytest.raises(CrashFault):
            system.sync()

        (event,) = system.journal_events("fault.fired")
        assert event["site"] == "waldo.drain.segment"
        assert event["hit"] == 1
        assert event["action"] == "crash"
        assert event["kind"] == "fault.fired"
        assert event["layer"] == "faults"
        # The fault fired inside the waldo.drain span: the event must
        # correlate to an actual finished span.
        assert event["trace_id"] is not None
        span_ids = {s["span_id"] for s in system.trace()}
        assert event["span_id"] in span_ids
        by_id = {s["span_id"]: s for s in system.trace()}
        assert by_id[event["span_id"]]["name"] == "waldo.drain"

    def test_fault_kind_field_names_the_action(self):
        plan = FaultPlan().add("waldo.drain.segment", "io_error", nth=1)
        injector = FaultInjector(plan)
        system = System.boot(tracing=True, journal=True, faults=injector)
        write_files(system)
        from repro.faults import IOFault
        with pytest.raises(IOFault):
            system.sync()
        (event,) = system.journal_events("fault.fired")
        assert event["action"] == "io_error"
        assert event["site"] == "waldo.drain.segment"

    def test_disarmed_injector_emits_nothing(self):
        system = System.boot(tracing=True, journal=True,
                             faults=FaultInjector())
        write_files(system)
        system.sync()
        assert system.journal_events("fault.fired") == []

    def test_journal_off_costs_the_injector_nothing(self):
        plan = FaultPlan().add("waldo.drain.segment", "crash", nth=1)
        injector = FaultInjector(plan)
        system = System.boot(faults=injector)        # journal off
        write_files(system)
        with pytest.raises(CrashFault):
            system.sync()
        assert system.journal_events() == []


class TestRecoveryIsJournaled:
    def test_recovery_replay_event_after_crash(self):
        plan = FaultPlan().add("waldo.drain.segment", "crash", nth=1)
        injector = FaultInjector(plan)
        system = System.boot(tracing=True, journal=True, faults=injector)
        write_files(system)
        with pytest.raises(CrashFault):
            system.sync()

        waldo = system.tier.waldo("pass")
        lasagna = system.kernel.volume("pass").lasagna
        lasagna.crash()
        report = recover(lasagna, database=waldo.database, consume=True)
        assert report.committed_records

        (event,) = system.journal_events("recovery.replay")
        assert event["volume"] == "pass"
        assert event["committed"] == len(report.committed_records)
        assert event["consumed"] is True
        assert event["inserted"] is True


class TestGroupCommitAndPlanCompileEvents:
    def test_batched_ingest_emits_group_commits(self):
        from repro.core.records import Attr

        system = System.boot(journal=True)
        # Records-only DPAPI disclosures: no data write intervenes, so
        # no WAP ordering point flushes the buffer before it crosses
        # the 512-record group-commit threshold.
        with system.process(argv=["writer"]) as proc:
            fd = proc.open("/pass/burst", "w")
            burst = proc.dpapi.record_many(
                fd, Attr.ANNOTATION, (f"note-{i}" for i in range(700)))
            proc.dpapi.pass_write(fd, records=burst)
            proc.close(fd)
        system.sync()
        events = system.journal_events("log.group_commit")
        assert events
        for event in events:
            assert event["layer"] == "lasagna"
            assert event["volume"] == "pass"
            assert event["records"] > 0

    def test_plan_compile_event_once_per_distinct_query(self):
        system = System.boot(journal=True)
        write_files(system)
        system.sync()
        text = "select F from Provenance.file as F"
        system.query(text)
        system.query(text)                         # plan-cache hit
        events = system.journal_events("pql.plan_compile")
        assert len(events) == 1
        assert events[0]["query"] == text
        assert events[0]["shape"] == "select F from Provenance . file as F"

    def test_plan_compile_event_once_per_shape(self):
        system = System.boot(journal=True)
        write_files(system)
        system.sync()
        texts = [f'select F from Provenance.file as F where F.name = "{name}"'
                 for name in ("/pass/a", "/pass/b", "/pass/c")]
        for text in texts:
            system.query(text)
        event, = system.journal_events("pql.plan_compile")
        assert event["query"] == texts[0]
        assert "?s" in event["shape"] and "/pass/a" not in event["shape"]

    def test_slow_query_log_records_cache_status(self):
        system = System.boot(journal=True)
        write_files(system)
        system.sync()
        system.obs.journal.slow_query_threshold_s = 0.0   # everything
        text = "select F from Provenance.file as F"
        system.query(text)
        system.query(text)
        slow = system.journal_events("pql.slow_query")
        assert len(slow) == 2
        assert slow[0]["cache_hit"] is False
        assert slow[1]["cache_hit"] is True
        assert slow[0]["plan"]
        assert slow[0]["rows"] == slow[1]["rows"]
