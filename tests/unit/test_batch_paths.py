"""Unit tests for the ingest path, stage by stage.

Each batch entry point -- ``Analyzer.submit_batch``,
``Distributor.flush_batch``, ``ProvenanceLog.append_batch``,
and ``ProvenanceDatabase.insert_many`` / ``subscribe_batch`` -- is
held to a reference that shares no code with it: ``Analyzer.submit``
and ``ProvenanceLog.append`` (the ordered route), lookups worked out by
hand.  ``OEMGraph.apply_batch`` is the graph's one splice loop, held to
one build over the same stream in
``tests/properties/test_oem_incremental_props.py``.  The end-to-end
property lives in ``tests/properties/test_batch_equivalence.py``; these
tests pin stage-local contracts (validation, thresholds, framing, laziness).
"""

import gc

import pytest

from repro.core.analyzer import Analyzer, ProtoRecord, ProtoRun
from repro.core.distributor import Distributor
from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef, make_pnode
from repro.core.records import Attr, Bundle, ProvenanceRecord, RecordBatch
from repro.pql.oem import OEMGraph
from repro.kernel.clock import SimClock
from repro.kernel.params import LogParams, SimParams
from repro.storage import codec
from repro.storage.database import ProvenanceDatabase
from repro.storage.log import ProvenanceLog
from repro.system import System
from tests.conftest import held_keys


class FakeObject:
    """Minimal freezable analyzer subject."""

    def __init__(self, pnode):
        self.pnode = pnode
        self.version = 0

    def ref(self):
        return ObjectRef(self.pnode, self.version)


def rec(pnode=1, version=0, attr=Attr.NAME, value="x"):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


# -- analyzer ---------------------------------------------------------------------


def batch_analyzer():
    batches = []
    singles = []
    analyzer = Analyzer(emit=singles.append, emit_batch=batches.append)
    return analyzer, batches, singles


class TestSubmitBatch:
    def test_matches_per_record_path_exactly(self):
        """Same protos through submit() and submit_batch() produce the
        same records in the same order with the same counters."""
        def protos(proc, file_):
            return [
                ProtoRecord(proc, Attr.NAME, "churner"),
                ProtoRecord(proc, Attr.INPUT, file_.ref()),
                ProtoRecord(proc, Attr.INPUT, file_.ref()),   # duplicate
                ProtoRecord(file_, Attr.ANNOTATION, "a"),
                ProtoRecord(file_, Attr.ANNOTATION, "b"),
                # Self-dependency: forces a freeze, whose PREV_VERSION
                # record must land at this position in the stream.
                ProtoRecord(file_, Attr.INPUT, file_.ref()),
            ]

        legacy_out = []
        reference = Analyzer(emit=legacy_out.append,
                             emit_batch=legacy_out.extend)
        reference.submit_many(protos(FakeObject(1), FakeObject(2)))

        analyzer, batches, singles = batch_analyzer()
        emitted = analyzer.submit_batch(protos(FakeObject(1), FakeObject(2)))

        assert not singles
        assert len(batches) == 1 and isinstance(batches[0], RecordBatch)
        assert list(batches[0]) == legacy_out
        assert emitted == len(legacy_out)
        assert analyzer.records_in == reference.records_in
        assert analyzer.records_out == reference.records_out
        assert analyzer.duplicates_dropped == reference.duplicates_dropped
        assert analyzer.freezes == reference.freezes == 1

    def test_one_record_batches_drop_cross_batch_duplicates(self):
        analyzer, batches, _ = batch_analyzer()
        file_ = FakeObject(2)
        for _ in range(4):
            # One-record batches: every record sits at a run boundary,
            # so ``_seen`` (not the run cache) must classify the repeats.
            analyzer.submit_batch([ProtoRecord(file_, Attr.TYPE, "file")])
        assert sum(len(list(b)) for b in batches) == 1
        assert analyzer.duplicates_dropped == 3

    @pytest.mark.parametrize("bulk", [True, False])
    def test_keys_are_untracked_tuples_or_run_values(self, bulk):
        """Dedup state is one flat set of tuples of atoms, which the
        cycle collector stops tracking at its first look, plus the
        values of bulk runs of plain values grouped per version: only a
        version such a run reached has a group.  ``bulk`` False submits
        the run's records one at a time; runs of cross-references or of
        mixed classes are never bulk-admitted."""
        analyzer, _, _ = batch_analyzer()
        file_, other = FakeObject(2), FakeObject(3)
        run = ProtoRun(file_, Attr.ANNOTATION, ["a", "b"])
        analyzer.submit_batch([
            ProtoRecord(file_, Attr.TYPE, "file"),
            ProtoRecord(file_, Attr.INPUT, other.ref()),
            *([run] if bulk else run),
            ProtoRun(file_, Attr.INPUT, [other.ref()]),
            ProtoRun(other, Attr.NAME, [1, True]),
            ProtoRecord(other, Attr.PID, 7),
            ProtoRecord(file_, Attr.INPUT, file_.ref()),     # a freeze
        ])
        analyzer.submit(ProtoRecord(other, Attr.MD5, b"x"))
        gc.collect()
        assert type(analyzer._seen) is set
        assert not any(gc.is_tracked(key) for key in analyzer._seen)
        # The version as one int, the attribute, then a str as itself, a
        # cross-reference as its target, any other value after its class.
        v20, v21, v30 = 2 << 32, 2 << 32 | 1, 3 << 32
        annotations = {(v20, Attr.ANNOTATION, "a"),
                       (v20, Attr.ANNOTATION, "b")}
        assert held_keys(analyzer) == annotations | {
            (v20, Attr.TYPE, "file"), (v20, Attr.INPUT, 3, 0),
            (v30, Attr.NAME, "int", 1), (v30, Attr.NAME, "bool", True),
            (v30, Attr.PID, "int", 7), (v21, Attr.PREV_VERSION, 2, 0),
            (v21, Attr.INPUT, 2, 0), (v30, Attr.MD5, "bytes", b"x")}
        if bulk:
            assert analyzer._runs == {
                v20: {(Attr.ANNOTATION, str): {"a", "b"}}}
            assert analyzer._seen.isdisjoint(annotations)
        else:
            assert analyzer._runs == {}

    def test_dedup_disabled_keeps_duplicates(self):
        analyzer, batches, _ = batch_analyzer()
        analyzer.dedup_enabled = False
        file_ = FakeObject(2)
        analyzer.submit_batch(
            [ProtoRecord(file_, Attr.TYPE, "file")] * 3)
        assert sum(len(list(b)) for b in batches) == 3
        assert analyzer.duplicates_dropped == 0

    def test_invalid_value_type_raises(self):
        analyzer, _, _ = batch_analyzer()
        with pytest.raises(InvalidRecord):
            analyzer.submit_batch(
                [ProtoRecord(FakeObject(1), Attr.NAME, ["not", "a", "value"])])

    def test_empty_attr_raises(self):
        analyzer, _, _ = batch_analyzer()
        with pytest.raises(InvalidRecord):
            analyzer.submit_batch([ProtoRecord(FakeObject(1), "", "x")])

    def test_finalized_records_pass_through_in_order(self):
        analyzer, batches, _ = batch_analyzer()
        file_ = FakeObject(2)
        finalized = rec(pnode=9, attr=Attr.TYPE, value="wire")
        analyzer.submit_batch([
            ProtoRecord(file_, Attr.NAME, "local"),
            finalized,
            ProtoRecord(file_, Attr.ANNOTATION, "after"),
        ])
        assert [r.attr for r in batches[0]] == [Attr.NAME, Attr.TYPE,
                                                Attr.ANNOTATION]


class TestRejectedRecords:
    """A record that fails validation is refused before anything is
    kept of it, and the records its call admitted before it are emitted
    (as ``submit`` per record leaves them), never dropped."""

    def test_a_rejected_record_does_not_poison_dedup(self):
        system = System.boot()
        with system.process(argv=["annotator"]) as proc:
            dpapi = proc.dpapi
            obj = dpapi.pass_mkobj()
            with pytest.raises(InvalidRecord):
                dpapi.pass_write(obj, records=[
                    dpapi.record(obj, Attr.ANNOTATION, "a"),
                    dpapi.record(obj, Attr.ANNOTATION, object())])
            # The retry is a duplicate of what was admitted and emitted.
            dpapi.pass_write(obj, records=[
                dpapi.record(obj, Attr.ANNOTATION, "a")])
            dpapi.pass_sync(obj)
            pnode = dpapi.ref_of(obj).pnode
        system.sync()
        assert [record.value for record in system.database().records_of(pnode)
                if record.attr == Attr.ANNOTATION] == ["a"]

    def test_overlong_attribute_is_rejected_before_the_log(self):
        """255 UTF-8 bytes is what the log can frame; a longer name is an
        ``InvalidRecord`` at admission, and the valid records of the same
        call reach the database."""
        system = System.boot()
        with system.process(argv=["annotator"]) as proc:
            dpapi = proc.dpapi
            fd = proc.open("/pass/f.dat", "w")
            with pytest.raises(InvalidRecord):
                dpapi.pass_write(fd, records=[
                    dpapi.record(fd, Attr.ANNOTATION, "kept"),
                    dpapi.record(fd, "é" * 128, "v")])
            proc.write(fd, b"data")
            proc.close(fd)
        system.sync()
        # Every record the analyzer emitted is stored (MD5 is Lasagna's,
        # recorded below the analyzer for the data write).
        stored = [record for record in system.database().all_records()
                  if record.attr != Attr.MD5]
        assert len(stored) == system.kernel.analyzer.records_out
        assert "kept" in [record.value for record in stored]
        assert system.fsck().clean


class TestRunAdmission:
    """A ``ProtoRun`` is admitted in bulk when its values share one
    exact plain class, as its proto-records otherwise; either way the
    stream is what ``submit`` per value emits."""

    def reference(self, subject, attr, values):
        out = []
        analyzer = Analyzer(emit=out.append, emit_batch=out.extend)
        analyzer.submit_many(ProtoRun(subject, attr, values))
        return analyzer, out

    def test_run_reads_as_its_proto_records(self):
        file_ = FakeObject(2)
        run = ProtoRun(file_, Attr.ANNOTATION, ["a", "b"])
        assert len(run) == 2
        assert list(run) == [ProtoRecord(file_, Attr.ANNOTATION, "a"),
                             ProtoRecord(file_, Attr.ANNOTATION, "b")]
        protos = [ProtoRecord(file_, Attr.TYPE, "FILE")]
        protos += run                    # what the e2e workloads do
        assert len(protos) == 3 and protos[1:] == list(run)

    def test_bulk_admission_counts_values_and_charges_the_clock_once(self):
        clock = SimClock()
        batches = []
        analyzer = Analyzer(emit=None, emit_batch=batches.append,
                            clock=clock, record_cost=0.5)
        file_ = FakeObject(2)
        emitted = analyzer.submit_batch([
            ProtoRecord(file_, Attr.TYPE, "FILE"),
            ProtoRun(file_, Attr.ANNOTATION, ["a", "b", "a", "c"]),
            ProtoRecord(file_, Attr.ANNOTATION, "b"),        # seen in run
            ProtoRecord(file_, Attr.NAME, "/f"),
        ])
        assert clock.now == 0.5 * 7
        assert (analyzer.records_in, analyzer.records_out,
                analyzer.duplicates_dropped) == (7, 5, 2)
        assert emitted == 5 and len(batches) == 1
        ref = ObjectRef(2, 0)
        assert batches[0].rows == [
            ref, Attr.TYPE, "FILE", ref, Attr.ANNOTATION, "a",
            ref, Attr.ANNOTATION, "b", ref, Attr.ANNOTATION, "c",
            ref, Attr.NAME, "/f"]
        # Against an earlier batch, whole and in part.
        analyzer.submit_batch([ProtoRun(file_, Attr.ANNOTATION, ["c", "a"])])
        analyzer.submit_batch([ProtoRun(file_, Attr.ANNOTATION,
                                        ["a", "d", "d", "b", "e"])])
        assert len(batches) == 2
        assert [r.value for r in batches[1]] == ["d", "e"]
        assert analyzer.duplicates_dropped == 2 + 2 + 3

    def test_dedup_disabled_admits_every_value(self):
        batches = []
        analyzer = Analyzer(emit=None, emit_batch=batches.append)
        analyzer.dedup_enabled = False
        run = ProtoRun(FakeObject(2), Attr.ANNOTATION, ["a", "a", "b"])
        analyzer.submit_batch([run])
        analyzer.submit_batch([run])
        assert [[r.value for r in b] for b in batches] == [["a", "a", "b"]] * 2
        assert analyzer.duplicates_dropped == 0

    @pytest.mark.parametrize("values", [
        [1, True, 1.0, 1],                       # equal, three classes
        [True, False, True],                     # bool is bulk-admissible
        [type("Tag", (str,), {})("a"), "a"],     # a subclass is not
        [],
        [b"x", b"y", b"x"],
        [2.5, 2.5],
    ])
    def test_any_run_emits_what_submit_emits(self, values):
        expected, expected_out = self.reference(
            FakeObject(2), Attr.ANNOTATION, values)
        out = []
        analyzer = Analyzer(emit=None, emit_batch=out.extend)
        analyzer.submit_batch([ProtoRun(FakeObject(2), Attr.ANNOTATION,
                                        values)])
        assert out == expected_out
        assert [type(r.value) for r in out] == [
            type(r.value) for r in expected_out]
        assert analyzer.records_in == expected.records_in == len(values)
        assert analyzer.duplicates_dropped == expected.duplicates_dropped

    def test_reference_run_freezes_mid_run(self):
        """Cycle avoidance sees each cross-reference: the self-reference
        in the middle of the run freezes the subject there."""
        def values():
            return [ObjectRef(1, 0), ObjectRef(2, 0), ObjectRef(3, 0)]

        expected, expected_out = self.reference(
            FakeObject(2), Attr.INPUT, values())
        out = []
        analyzer = Analyzer(emit=None, emit_batch=out.extend)
        file_ = FakeObject(2)
        analyzer.submit_batch([ProtoRun(file_, Attr.INPUT, values())])
        assert out == expected_out and file_.version == 1
        assert [(r.subject.version, r.attr) for r in out] == [
            (0, Attr.INPUT), (1, Attr.PREV_VERSION), (1, Attr.INPUT),
            (1, Attr.INPUT)]
        assert analyzer.freezes == expected.freezes == 1

    @pytest.mark.parametrize("run", [
        ProtoRun(FakeObject(1), "", ["x"]),
        ProtoRun(FakeObject(1), 7, ["x"]),
        ProtoRun(FakeObject(1), Attr.NAME, ["x", ["not", "a", "value"]]),
        ProtoRun(FakeObject(1), Attr.NAME, [None]),
        ProtoRun(type("Bad", (), {"ref": lambda self: (1, 0)})(),
                 Attr.NAME, ["x"]),
    ])
    def test_invalid_run_raises(self, run):
        """... after emitting what ``submit`` per value emits before the
        invalid one (a valid first value of a mixed run)."""
        analyzer, batches, _ = batch_analyzer()
        with pytest.raises(InvalidRecord):
            analyzer.submit_batch([run])
        expected = []
        reference = Analyzer(emit=expected.append, emit_batch=expected.extend)
        with pytest.raises(InvalidRecord):
            reference.submit_many(run)
        assert [record for batch in batches for record in batch] == expected
        assert held_keys(analyzer) == held_keys(reference)


class TestDisclosedRuns:
    """``record_many`` -> ``pass_write``: one object for the group, and
    every counter still counts records."""

    def test_counters_count_the_runs_values(self):
        system = System.boot()
        with system.process(argv=["annotator"]) as proc:
            fd = proc.open("/pass/f.dat", "w")
            run = proc.dpapi.record_many(
                fd, Attr.ANNOTATION, (f"k{i}" for i in range(50)))
            assert type(run) is ProtoRun and len(run) == 50
            observer, analyzer = system.kernel.observer, system.kernel.analyzer
            before = (observer.records_emitted, observer.disclosed_count,
                      analyzer.records_in, analyzer.records_out)
            proc.dpapi.pass_write(fd, records=run)
            after = (observer.records_emitted, observer.disclosed_count,
                     analyzer.records_in, analyzer.records_out)
            # 50 disclosed + the kernel's own file <- process edge.
            assert [b - a for a, b in zip(before, after)] == [51, 50, 51, 51]
            # A list holding runs beside records counts the same way.
            obj = proc.dpapi.pass_mkobj()
            proc.dpapi.pass_write(obj, records=[
                proc.dpapi.record(obj, Attr.NAME, "thing"),
                proc.dpapi.record_many(obj, Attr.ANNOTATION, ["x", "y"]),
                proc.dpapi.record_many(obj, Attr.INPUT,
                                       [proc.dpapi.ref_of(fd)])])
            assert observer.disclosed_count - after[1] == 4
            assert observer.records_emitted - after[0] == 4
            proc.close(fd)


# -- distributor ------------------------------------------------------------------


PASS_VOL_ID = 3
VOLUME_NAMES = {PASS_VOL_ID: "pass"}


def make_distributor():
    sunk = []
    dist = Distributor(lambda volume, bundle: sunk.append((volume, bundle)),
                       lambda vid: VOLUME_NAMES[vid],
                       default_volume="pass")
    return dist, sunk


def persistent_ref(local=1, version=0):
    return ObjectRef(make_pnode(PASS_VOL_ID, local), version)


def transient_ref(local=1, version=0):
    return ObjectRef(make_pnode(0, local), version)


class TestFlushBatch:
    def test_one_bundle_per_volume(self):
        dist, sunk = make_distributor()
        batch = RecordBatch([
            ProvenanceRecord(persistent_ref(1), Attr.NAME, "a"),
            ProvenanceRecord(persistent_ref(1), Attr.TYPE, "file"),
            ProvenanceRecord(persistent_ref(2), Attr.NAME, "b"),
        ])
        dist.flush_batch(batch)
        assert len(sunk) == 1
        volume, bundle = sunk[0]
        assert volume == "pass"
        assert [r.attr for r in bundle] == [Attr.NAME, Attr.TYPE, Attr.NAME]
        assert dist.records_flushed == 3
        assert dist.batches_dispatched == 1

    def test_transient_subjects_cached_not_flushed(self):
        dist, sunk = make_distributor()
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(transient_ref(7), Attr.NAME, "proc"),
        ]))
        assert sunk == []
        assert dist.records_cached == 1

    def test_ancestor_cache_flushes_before_descendant(self):
        """A persistent record referencing a cached transient flushes the
        transient's records first -- WAP inside one batch."""
        dist, sunk = make_distributor()
        parent = transient_ref(7)
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(parent, Attr.NAME, "proc"),
        ]))
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(persistent_ref(1), Attr.INPUT, parent),
        ]))
        flat = [(volume, record) for volume, bundle in sunk
                for record in bundle]
        assert [r.attr for _, r in flat] == [Attr.NAME, Attr.INPUT]

    def test_same_run_after_assignment_routes_to_volume(self):
        """Follow-on records of an assigned transient leave with the
        batch even when the subject run spans the assignment."""
        dist, sunk = make_distributor()
        parent = transient_ref(7)
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(parent, Attr.NAME, "proc"),
        ]))
        dist.flush(parent.pnode, "pass")
        sunk.clear()
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(parent, Attr.ANNOTATION, "late"),
        ]))
        assert len(sunk) == 1
        assert sunk[0][0] == "pass"


    def test_flush_outside_a_batch_is_one_ordered_bundle_per_object(self):
        """``pass_sync`` / ancestor materialization outside a batch: the
        cached rows reach the sink as :class:`Bundle`s (the caller
        orders the flush), one call per object, ancestors first."""
        dist, sunk = make_distributor()
        parent, child = transient_ref(7), transient_ref(8)
        dist.flush_batch(RecordBatch([
            ProvenanceRecord(parent, Attr.NAME, "proc"),
            ProvenanceRecord(parent, Attr.PID, 7),
            ProvenanceRecord(child, Attr.NAME, "pipe"),
            ProvenanceRecord(child, Attr.INPUT, parent),
        ]))
        assert sunk == [] and dist.records_cached == 4
        assert [r.attr for r in dist.cached_records(child.pnode)] == [
            Attr.NAME, Attr.INPUT]
        assert dist.sync(child.pnode) == 2
        assert [(volume, type(bundle), [r.attr for r in bundle])
                for volume, bundle in sunk] == [
            ("pass", Bundle, [Attr.NAME, Attr.PID]),
            ("pass", Bundle, [Attr.NAME, Attr.INPUT])]
        assert dist.records_flushed == 4 and dist.flush_calls == 2
        assert dist._cache == {}
        assert dist.discard(parent.pnode) == 0


# -- provenance log ---------------------------------------------------------------


def make_log(**params):
    clock = SimClock()
    written = []
    log = ProvenanceLog(clock, LogParams(**params),
                        disk_write=written.append)
    return log, written


class TestAppendBatch:
    def test_below_thresholds_stays_buffered(self):
        log, written = make_log(group_commit_records=10,
                                group_commit_bytes=1 << 20)
        log.append_batch([rec(value=f"v{i}") for i in range(9)])
        assert written == []
        assert log.buffered_records == 9
        assert log.batch_records == 9
        assert log.batch_flushes == 0

    def test_record_threshold_group_commits_once(self):
        log, written = make_log(group_commit_records=8,
                                group_commit_bytes=0)
        log.append_batch([rec(value=f"v{i}") for i in range(8)])
        assert log.batch_flushes == 1
        assert log.buffered_records == 0
        assert len(written) == 1
        # One transaction frames the whole group.
        attrs = [r.attr for r in log.current.records]
        assert attrs[0] == Attr.BEGINTXN and attrs[-1] == Attr.ENDTXN
        assert attrs.count(Attr.BEGINTXN) == 1

    def test_byte_threshold_group_commits(self):
        log, written = make_log(group_commit_records=0,
                                group_commit_bytes=64)
        log.append_batch([rec(value="x" * 200)])
        assert log.batch_flushes == 1
        assert written and written[0] >= 200

    def test_zeroed_thresholds_disable_group_commit(self):
        log, written = make_log(group_commit_records=0,
                                group_commit_bytes=0)
        log.append_batch([rec(value=f"v{i}") for i in range(5000)])
        assert written == []
        assert log.batch_flushes == 0

    def test_batched_bytes_match_per_record_path(self):
        """append_batch + flush writes byte-identical log content (and
        charges identical disk bytes) to append-per-record + flush."""
        records = [rec(value=f"v{i}", attr=a)
                   for i in range(40)
                   for a in (Attr.NAME, Attr.ANNOTATION)]
        one, written_one = make_log()
        for record in records:
            one.append(record)
        one.flush()
        many, written_many = make_log()
        many.append_batch(records)
        many.flush()
        assert bytes(one.current.raw) == bytes(many.current.raw)
        assert written_one == written_many
        assert one.bytes_logged == many.bytes_logged == len(one.current.raw)

    def test_append_of_a_bundle_never_commits(self):
        """The ordered route in one call: a Bundle of any size waits for
        the caller's flush; the next *batch* sees the full buffer."""
        log, written = make_log(group_commit_records=8,
                                group_commit_bytes=64)
        log.append(Bundle([rec(value=f"v{i}") for i in range(20)]))
        log.append(rec(value="single"))
        assert written == [] and log.buffered_records == 21
        assert log.batch_records == log.batch_flushes == 0
        log.append_batch(RecordBatch([rec(value="batch")]))
        assert log.batch_flushes == 1 and log.buffered_records == 0
        assert written == [len(log.current.raw)]
        assert [r.value for r in log.current.records][1:-1] == [
            *(f"v{i}" for i in range(20)), "single", "batch"]

    def test_flush_charges_exactly_the_appended_bytes(self):
        """Satellite: one byte counter -- the disk charge equals the
        encoded buffer plus framing, with no re-encoding pass."""
        log, written = make_log()
        records = [rec(value=f"value-{i}") for i in range(10)]
        for record in records:
            log.append(record)
        log.flush()
        assert written == [len(log.current.raw)]


class TestAppendProvenance:
    """Lasagna keeps the two routes apart."""

    def test_bundle_waits_and_batch_may_commit(self):
        system = System.boot(params=SimParams(
            log=LogParams(group_commit_records=4)))
        lasagna = system.tier.lasagna("pass")
        records = [rec(pnode=pnode, value=f"v{pnode}")
                   for pnode in range(1, 13)]
        lasagna.append_provenance(Bundle(records))
        assert lasagna.log.flushes == 0
        assert lasagna.log.buffered_records == 12
        lasagna.append_provenance(RecordBatch(records[:1]))
        assert lasagna.log.flushes == 1
        assert not lasagna.log.buffered_records
        system.sync()
        stored = list(system.database().all_records())
        assert sorted(stored, key=lambda r: r.subject.pnode) == sorted(
            records + records[:1], key=lambda r: r.subject.pnode)


# -- database ---------------------------------------------------------------------


class TestInsertMany:
    def records(self):
        subject_a = ObjectRef(1, 0)
        subject_b = ObjectRef(2, 3)
        return [
            ProvenanceRecord(subject_a, Attr.NAME, "/pass/a"),
            ProvenanceRecord(subject_a, Attr.INPUT, subject_b),
            ProvenanceRecord(subject_b, Attr.NAME, "/pass/b"),
            ProvenanceRecord(subject_b, Attr.ANNOTATION, "x"),
            ProvenanceRecord(ObjectRef(1, 2), Attr.TYPE, "file"),
        ]

    def test_matches_per_record_inserts(self):
        """Every read against the answer worked out by hand, whether
        the records arrive as one group, one ``insert`` at a time, or
        as two groups with the sizes read in between."""
        records = self.records()
        a0, b3, a2 = ObjectRef(1, 0), ObjectRef(2, 3), ObjectRef(1, 2)
        loop, bulk = ProvenanceDatabase("loop"), ProvenanceDatabase("bulk")
        split = ProvenanceDatabase("split")
        for record in records:
            loop.insert(record)
        assert bulk.insert_many(records) == 5
        split.insert_many(records[:2])
        assert split.sizes() == {"database": sum(
            codec.encoded_size(record) for record in records[:2]),
            "indexes": 2 * 20 + (16 + 7) + 28,
            "total": split.main_bytes + split.index_bytes}
        split.insert_many(records[2:])
        for database in (loop, bulk, split):
            # all_records() groups by pnode, each in insertion order.
            assert list(database.all_records()) == [
                records[0], records[1], records[4], records[2], records[3]]
            assert database.record_count == len(database) == 5
            assert database.subjects_with_attr(Attr.NAME) == [a0, b3]
            assert database.records_of_version(a2) == [records[4]]
            assert database.main_bytes == sum(
                codec.encoded_size(record) for record in records)
            # 5 attribute entries, 2 seven-character names, 1 xref.
            assert database.index_bytes == 5 * 20 + 2 * (16 + 7) + 28
            assert database.sizes() == bulk.sizes()
            # Versions, names and reverse edges are the graph's.
            graph = OEMGraph.build(database.all_records())
            assert [node.ref for node in graph.versions_of(1)] == [a0, a2]
            assert [node.ref for node in graph.versions_of(2)] == [b3]
            assert [node.ref for node in graph.named("/pass/a")] == [a0, a2]
            assert [node.ref for node in graph.node(b3).redges["input"]] == [a0]

    def test_rows_are_the_only_containers(self):
        """NAME and cross-reference rows about k pnodes leave the
        database holding k per-pnode row lists and nothing else: no
        dict keyed by a name or an ObjectRef, no version map."""
        database = ProvenanceDatabase()
        database.insert_many(self.records())
        database.sizes()                   # sizes read, none kept
        containers, stack, seen = [], list(vars(database).values()), set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or not isinstance(obj, (dict, list, set)):
                continue
            seen.add(id(obj))
            containers.append(obj)
            stack.extend(gc.get_referents(obj))
        dicts = [obj for obj in containers if isinstance(obj, dict)]
        assert dicts == [database._records]
        assert sorted(database._records) == [1, 2]
        assert sorted(len(obj) for obj in containers if obj) == [
            2, 6, 9]                        # _records, pnode 2, pnode 1

    def test_subjects_with_attr_is_grouped_by_object(self):
        """One subject per record carrying the attribute, grouped by
        object (objects in first-insertion order), each object's in
        insertion order."""
        a0, b0, a1 = ObjectRef(1, 0), ObjectRef(2, 0), ObjectRef(1, 1)
        database = ProvenanceDatabase()
        database.insert_many([
            ProvenanceRecord(a0, Attr.TYPE, "file"),
            ProvenanceRecord(b0, Attr.TYPE, "process"),
            ProvenanceRecord(a1, Attr.TYPE, "file"),
            ProvenanceRecord(b0, Attr.NAME, "/b"),
            ProvenanceRecord(a1, Attr.NAME, "/a"),
            ProvenanceRecord(a1, Attr.NAME, "/a2"),
        ])
        assert database.subjects_with_attr(Attr.TYPE) == [a0, a1, b0]
        assert database.subjects_with_attr(Attr.NAME) == [a1, a1, b0]
        assert database.subjects_with_attr(Attr.PID) == []

    def test_main_bytes_accounting_is_lazy_but_exact(self):
        """Both byte counters are computed from the rows the database
        holds on the first read of either after an insert, remembered
        until the next insert, and exact at every read; no row is kept
        anywhere but its pnode's group."""
        database = ProvenanceDatabase()
        records = self.records()
        database.insert_many(records[:2])
        assert database._sized == (0, 0, 0)     # an insert computes nothing
        assert database.sizes() == {
            "database": sum(map(codec.encoded_size, records[:2])),
            "indexes": 2 * 20 + (16 + 7) + 28,
            "total": sum(map(codec.encoded_size, records[:2]))
            + 2 * 20 + (16 + 7) + 28}
        sized = database._sized
        assert database.main_bytes and database._sized is sized  # memo
        database.insert_many(records[2:])
        assert database._sized is sized         # stale until read
        expected = sum(codec.encoded_size(record) for record in records)
        assert database.main_bytes == expected
        assert database._sized == (5, expected, 5 * 20 + 2 * (16 + 7) + 28)
        assert database.index_bytes == 5 * 20 + 2 * (16 + 7) + 28
        assert [name for name, value in vars(database).items()
                if isinstance(value, list) and value] == []

    def test_batch_listener_sees_each_record_once_via_both_paths(self):
        database = ProvenanceDatabase()
        groups = []
        database.subscribe_batch(lambda batch: groups.append(list(batch)))
        records = self.records()
        database.insert_many(records[:3])
        database.insert(records[3])
        assert [len(g) for g in groups] == [3, 1]
        assert [r for g in groups for r in g] == records[:4]
