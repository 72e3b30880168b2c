"""Unit tests for provenance records and bundles."""

import copy
import dataclasses
import gc
import pickle

import pytest

from repro.core.analyzer import ProtoRecord
from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, Bundle, ProvenanceRecord, RecordBatch,
                                make_record, records_from, rows_of)
from repro.system import System


def rec(pnode=1, version=0, attr=Attr.NAME, value="x"):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


class TestProvenanceRecord:
    def test_plain_value_record(self):
        record = rec(value="hello")
        assert not record.is_xref
        assert not record.is_ancestry

    def test_xref_record(self):
        record = rec(attr=Attr.INPUT, value=ObjectRef(2, 0))
        assert record.is_xref
        assert record.is_ancestry

    def test_xref_with_non_ancestry_attr(self):
        record = rec(attr=Attr.CURRENT_URL, value=ObjectRef(2, 0))
        assert record.is_xref
        assert not record.is_ancestry

    def test_ancestry_attr_with_plain_value_is_not_ancestry(self):
        record = rec(attr=Attr.INPUT, value="not-a-ref")
        assert not record.is_ancestry

    def test_rejects_bad_subject(self):
        with pytest.raises(InvalidRecord):
            ProvenanceRecord((1, 0), Attr.NAME, "x")  # plain tuple

    def test_rejects_empty_attr(self):
        with pytest.raises(InvalidRecord):
            ProvenanceRecord(ObjectRef(1, 0), "", "x")

    def test_rejects_bad_value_type(self):
        with pytest.raises(InvalidRecord):
            ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, ["list"])

    def test_key_distinguishes_value_types(self):
        # 1 == True in Python; the dedup key must keep them apart.
        a = rec(attr=Attr.ANNOTATION, value=1)
        b = rec(attr=Attr.ANNOTATION, value=True)
        assert a.key() != b.key()

    def test_key_distinguishes_ref_from_tuple_like_int(self):
        a = rec(attr=Attr.INPUT, value=ObjectRef(5, 1))
        b = rec(attr=Attr.INPUT, value=5)
        assert a.key() != b.key()

    def test_frozen(self):
        record = rec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.attr = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.attr
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1                # no slot, no dict to land in

    def test_three_slots_no_instance_dict(self):
        assert ProvenanceRecord.__slots__ == ("subject", "attr", "value")
        for record in (rec(), make_record(ObjectRef(1, 0), Attr.NAME, "x")):
            assert not hasattr(record, "__dict__")
        assert not hasattr(ProtoRecord(object(), Attr.NAME, "x"), "__dict__")

    def test_identity_is_unchanged(self):
        record = rec(pnode=7, version=2, attr=Attr.INPUT,
                     value=ObjectRef(3, 1))
        same = rec(pnode=7, version=2, attr=Attr.INPUT, value=ObjectRef(3, 1))
        assert record == same and hash(record) == hash(same)
        assert record != rec(pnode=7, version=2, attr=Attr.INPUT,
                             value=ObjectRef(3, 2))
        assert len({record, same}) == 1
        assert record.key() == (ObjectRef(7, 2), "INPUT", ("ref", 3, 1))
        assert rec(value=1.5).key() == (ObjectRef(1, 0), "NAME",
                                        ("float", 1.5))
        assert repr(record) == (
            "ProvenanceRecord(subject=ObjectRef(pnode=7, version=2), "
            "attr='INPUT', value=ObjectRef(pnode=3, version=1))")
        assert str(rec(value="x")) == "1:0 NAME='x'"

    @pytest.mark.parametrize("value", [
        "text", b"bytes", 7, 2.5, True, ObjectRef(9, 4)])
    def test_copies_round_trip(self, value):
        record = rec(attr=Attr.ANNOTATION, value=value)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert clone == record and type(clone) is ProvenanceRecord
            assert type(clone.value) is type(value)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert dataclasses.replace(record) == record
        moved = dataclasses.replace(record, subject=ObjectRef(2, 3))
        assert (moved.subject, moved.attr, moved.value) == (
            ObjectRef(2, 3), Attr.ANNOTATION, value)
        assert dataclasses.astuple(rec(value="v")) == ((1, 0), "NAME", "v")

    def test_replace_still_validates(self):
        with pytest.raises(InvalidRecord):
            dataclasses.replace(rec(), attr="")

    def test_make_record_is_indistinguishable(self):
        for value in ("v", 3, ObjectRef(4, 0)):
            built = ProvenanceRecord(ObjectRef(1, 2), Attr.INPUT, value)
            minted = make_record(ObjectRef(1, 2), Attr.INPUT, value)
            assert type(minted) is ProvenanceRecord
            assert minted == built and hash(minted) == hash(built)
            assert repr(minted) == repr(built) and str(minted) == str(built)
            assert minted.key() == built.key()
            assert minted.is_ancestry == built.is_ancestry
            assert pickle.dumps(minted) == pickle.dumps(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                minted.value = "other"


class TestHeapShape:
    """What one stored record costs the cycle collector.

    A record used to be two tracked objects (the instance plus the
    ``__dict__`` the mint sites filled) and every distinct annotation
    value one more (a one-element equality-index bucket), then one (the
    slotted instance, kept alive by the log segment and the database).
    Now a record is three slots of a flat list at every stage between
    the DPAPI and the OEM graph, and nothing the collector walks.
    """

    RECORDS = 20_000

    def test_tracked_objects_per_record(self):
        system = System.boot()
        with system.process(argv=["mkdir"]) as proc:
            proc.mkdir("/pass/heap")
        gc.collect()
        before = len(gc.get_objects())
        with system.process(argv=["annotator"]) as proc:
            fd = proc.open("/pass/heap/f.dat", "w")
            proc.write(fd, b"x" * 64)
            disclosed = proc.dpapi.record_many(
                fd, Attr.ANNOTATION,
                (f"heap.k{key}" for key in range(self.RECORDS)))
            proc.dpapi.pass_write(fd, records=disclosed)
            del disclosed
            proc.close(fd)
        stored = system.sync()
        assert stored >= self.RECORDS
        gc.collect()
        growth = len(gc.get_objects()) - before
        # Captured, logged, drained and stored; no query yet.
        assert growth / stored <= 0.05, (growth, stored)
        rows = system.query_engine().execute(
            "select F from Provenance.file as F "
            'where F.annotation = "heap.k77"')
        assert len(rows) == 1
        gc.collect()
        growth = len(gc.get_objects()) - before
        assert growth / stored <= 0.25, (growth, stored)

    STEPS = 1_000

    def test_tracked_objects_per_version_of_a_build_dag(self):
        """A disclosed build DAG (source, process, output per step, the
        process reading its source and the two previous outputs) costs
        the collector a bounded number of objects per stored version:
        one ObjectRef per version, no tuple per reverse reference, no
        one-element list per atom, no dedup set per version, no list per
        name or pnode held by one node.  Per-record objects put this
        near 21 per version, per-version containers near 14; it is
        about 10."""
        system = System.boot()
        gc.collect()
        before = len(gc.get_objects())
        with system.process(argv=["builder"]) as proc:
            dpapi = proc.dpapi
            record, ref_of = dpapi.record, dpapi.ref_of
            outputs: list[int] = []
            for step in range(self.STEPS):
                src, prc, out = (dpapi.pass_mkobj() for _ in range(3))
                records = [record(src, Attr.TYPE, "FILE"),
                           record(src, Attr.NAME, f"/src/{step}.c"),
                           record(src, Attr.MD5, f"s{step}"),
                           record(prc, Attr.TYPE, "PROCESS"),
                           record(prc, Attr.NAME, f"cc#{step}"),
                           record(prc, Attr.INPUT, ref_of(src))]
                records += [record(prc, Attr.INPUT, ref_of(earlier))
                            for earlier in outputs[-2:]]
                records += [record(out, Attr.TYPE, "FILE"),
                            record(out, Attr.NAME, f"/out/{step}.o"),
                            record(out, Attr.MD5, f"o{step}"),
                            record(out, Attr.INPUT, ref_of(prc))]
                dpapi.pass_write(out, records=records)
                dpapi.pass_sync(out)
                outputs.append(out)
        system.sync()
        engine = system.query_engine()
        rows = engine.execute(
            "select A from Provenance.file as F, F.input* as A "
            f'where F.md5 = "o{self.STEPS - 1}"')
        assert len(rows) == 3 * self.STEPS          # input* from zero hops
        del rows
        gc.collect()
        growth = len(gc.get_objects()) - before
        versions = len(engine.graph)
        assert versions == 3 * self.STEPS
        assert growth / versions <= 11, (growth, versions)


class TestBundle:
    def test_iteration_preserves_order(self):
        records = [rec(value=str(i)) for i in range(5)]
        bundle = Bundle(records)
        assert list(bundle) == records

    def test_add_and_len(self):
        bundle = Bundle()
        assert not bundle
        bundle.add(rec())
        assert len(bundle) == 1
        assert bundle

    def test_subjects_first_occurrence_order(self):
        bundle = Bundle([
            rec(pnode=2), rec(pnode=1), rec(pnode=2, attr=Attr.TYPE),
        ])
        assert [ref.pnode for ref in bundle.subjects()] == [2, 1]

    def test_rejects_non_records(self):
        with pytest.raises(InvalidRecord):
            Bundle(["nope"])
        bundle = Bundle()
        with pytest.raises(InvalidRecord):
            bundle.add("nope")

    def test_extend(self):
        bundle = Bundle()
        bundle.extend([rec(), rec(attr=Attr.TYPE)])
        assert len(bundle) == 2


class TestRecordBatch:
    """The carrier is flat rows; records exist where one is read."""

    RECORDS = [rec(pnode=1, value="a"), rec(pnode=2, attr=Attr.INPUT,
                                            value=ObjectRef(1, 0)),
               rec(pnode=1, attr=Attr.PID, value=7)]

    def test_rows_round_trip(self):
        batch = RecordBatch(self.RECORDS)
        assert batch.rows == [
            ObjectRef(1, 0), Attr.NAME, "a",
            ObjectRef(2, 0), Attr.INPUT, ObjectRef(1, 0),
            ObjectRef(1, 0), Attr.PID, 7]
        assert list(batch) == self.RECORDS == list(records_from(batch.rows))
        assert all(type(record) is ProvenanceRecord for record in batch)
        adopted = RecordBatch.of_rows(batch.rows)
        assert adopted.rows is batch.rows and list(adopted) == self.RECORDS

    def test_sizes_like_a_sequence_of_records(self):
        batch = RecordBatch(self.RECORDS)
        assert len(batch) == 3 and batch
        assert not RecordBatch() and len(RecordBatch()) == 0
        assert [batch[0], batch[1], batch[-1]] == self.RECORDS
        with pytest.raises(IndexError):
            batch[3]
        assert batch.subjects() == [ObjectRef(1, 0), ObjectRef(2, 0)]
        assert repr(batch) == "RecordBatch(3 records)"
        assert repr(Bundle(self.RECORDS)) == "Bundle(3 records)"

    def test_add_and_extend(self):
        batch = RecordBatch()
        batch.add(self.RECORDS[0])
        batch.extend(self.RECORDS[1:])
        batch.extend(RecordBatch(self.RECORDS[:1]))      # a carrier too
        assert list(batch) == self.RECORDS + self.RECORDS[:1]

    def test_rows_of_coerces_once_and_aliases_carriers(self):
        batch = RecordBatch(self.RECORDS)
        assert rows_of(batch) is batch.rows
        bundle = Bundle(self.RECORDS)
        assert rows_of(bundle) is bundle.rows == batch.rows
        assert rows_of(iter(self.RECORDS)) == batch.rows
        assert rows_of(()) == []

    def test_constructor_copies_the_callers_carrier(self):
        batch = RecordBatch(self.RECORDS)
        copy_ = RecordBatch(batch)
        copy_.add(self.RECORDS[0])
        assert len(batch) == 3 and len(copy_) == 4

    def test_trusted_bundle_keeps_its_class(self):
        """``of_rows`` is how the distributor says "the caller orders
        the flush" about rows it already holds."""
        bundle = Bundle.of_rows(RecordBatch(self.RECORDS).rows)
        assert type(bundle) is Bundle and not isinstance(bundle, RecordBatch)
        assert list(bundle) == self.RECORDS
