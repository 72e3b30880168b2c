"""Unit tests for the distributor: caching and flush routing."""

import pytest

from repro.core.distributor import Distributor
from repro.core.errors import UnknownPnode, VolumeError
from repro.core.pnode import ObjectRef, local_of, make_pnode
from repro.core.records import Attr, ObjType, ProvenanceRecord, RecordBatch
from repro.system import System

PASS_VOL_ID = 3
VOLUME_NAMES = {PASS_VOL_ID: "pass"}


def make_distributor(default="pass"):
    flushed = []

    def sink(volume, bundle):
        flushed.extend((volume, record) for record in bundle)

    dist = Distributor(sink, lambda vid: VOLUME_NAMES[vid],
                       default_volume=default)
    return dist, flushed


def persistent_ref(local=1, version=0):
    return ObjectRef(make_pnode(PASS_VOL_ID, local), version)


def transient_ref(local=1, version=0):
    return ObjectRef(make_pnode(0, local), version)


class TestRouting:
    def test_persistent_subject_flushes_immediately(self):
        dist, flushed = make_distributor()
        record = ProvenanceRecord(persistent_ref(), Attr.NAME, "/pass/x")
        dist.dispatch(record)
        assert flushed == [("pass", record)]

    def test_transient_subject_is_cached(self):
        dist, flushed = make_distributor()
        record = ProvenanceRecord(transient_ref(), Attr.TYPE, "PROCESS")
        dist.dispatch(record)
        assert flushed == []
        assert dist.cached_records(record.subject.pnode) == [record]

    def test_ancestor_cache_flushed_before_descendant_record(self):
        """WAP across objects: the process's provenance must hit the log
        before the file record that references the process."""
        dist, flushed = make_distributor()
        proc_ref = transient_ref(local=7)
        proc_record = ProvenanceRecord(proc_ref, Attr.TYPE, "PROCESS")
        dist.dispatch(proc_record)
        file_record = ProvenanceRecord(persistent_ref(), Attr.INPUT, proc_ref)
        dist.dispatch(file_record)
        assert flushed == [("pass", proc_record), ("pass", file_record)]

    def test_recursive_ancestor_flush(self):
        """file <- process <- pipe <- earlier process: one dispatch pulls
        the whole transient chain out in dependency order."""
        dist, flushed = make_distributor()
        p1, pipe, p2 = (transient_ref(local=i) for i in (1, 2, 3))
        dist.dispatch(ProvenanceRecord(p1, Attr.TYPE, "PROCESS"))
        dist.dispatch(ProvenanceRecord(pipe, Attr.INPUT, p1))
        dist.dispatch(ProvenanceRecord(p2, Attr.INPUT, pipe))
        assert flushed == []
        dist.dispatch(ProvenanceRecord(persistent_ref(), Attr.INPUT, p2))
        order = [record.subject.pnode for _, record in flushed]
        assert order.index(p1.pnode) < order.index(pipe.pnode)
        assert order.index(pipe.pnode) < order.index(p2.pnode)

    def test_follow_on_records_go_to_assigned_volume(self):
        dist, flushed = make_distributor()
        proc = transient_ref(local=5)
        dist.dispatch(ProvenanceRecord(proc, Attr.TYPE, "PROCESS"))
        dist.flush(proc.pnode, "pass")
        later = ProvenanceRecord(proc, Attr.NAME, "late-record")
        dist.dispatch(later)
        assert ("pass", later) in flushed


class TestSync:
    def test_sync_forces_cached_records_out(self):
        dist, flushed = make_distributor()
        obj = transient_ref(local=9)
        dist.dispatch(ProvenanceRecord(obj, Attr.TYPE, "SESSION"))
        dist.sync(obj.pnode)
        assert len(flushed) == 1

    def test_sync_unknown_pnode_raises(self):
        dist, _ = make_distributor()
        with pytest.raises(UnknownPnode):
            dist.sync(make_pnode(0, 999))

    def test_sync_respects_hint(self):
        flushed = []
        dist = Distributor(lambda vol, bundle: flushed.append(vol),
                           lambda vid: VOLUME_NAMES[vid],
                           default_volume="pass")
        obj = transient_ref(local=4)
        dist.set_hint(obj.pnode, "other-volume")
        dist.dispatch(ProvenanceRecord(obj, Attr.TYPE, "SESSION"))
        dist.sync(obj.pnode)
        assert flushed == ["other-volume"]

    def test_no_default_volume_raises(self):
        dist, _ = make_distributor(default=None)
        obj = transient_ref(local=2)
        dist.dispatch(ProvenanceRecord(obj, Attr.TYPE, "PROCESS"))
        with pytest.raises(VolumeError):
            dist.flush(obj.pnode)


class TestDiscard:
    def test_discard_drops_cache(self):
        dist, flushed = make_distributor()
        obj = transient_ref(local=3)
        dist.dispatch(ProvenanceRecord(obj, Attr.TYPE, "NP_FILE"))
        assert dist.discard(obj.pnode) == 1
        assert dist.cached_records(obj.pnode) == []
        assert dist.records_discarded == 1

    def test_discard_unknown_is_noop(self):
        dist, _ = make_distributor()
        assert dist.discard(12345) == 0


class TestDeepChains:
    """A transient ancestry chain of any depth flushes whole: the walk
    keeps its own stack, not Python's."""

    DEPTH = 5_000

    def disclose_chain(self, proc) -> int:
        """``DEPTH`` pass_mkobj objects, each an INPUT of the next;
        returns the tail's descriptor."""
        dpapi = proc.dpapi
        previous = None
        for index in range(self.DEPTH):
            fd = dpapi.pass_mkobj()
            records = [dpapi.record(fd, Attr.TYPE, ObjType.DATASET),
                       dpapi.record(fd, Attr.NAME, f"link{index}")]
            if previous is not None:
                records.append(dpapi.record(fd, Attr.INPUT,
                                            dpapi.ref_of(previous)))
            dpapi.pass_write(fd, records=records)
            previous = fd
        return previous

    def assert_whole_chain_stored(self, system) -> None:
        system.sync()
        database = system.database()
        assert all(system.find_by_name(f"link{index}")
                   for index in range(self.DEPTH))
        assert len(database.subjects_with_attr(Attr.INPUT)) >= self.DEPTH - 1
        assert system.fsck().clean

    def test_pass_sync_on_the_tail(self):
        system = System.boot()
        with system.process() as proc:
            tail = self.disclose_chain(proc)
            assert proc.dpapi.pass_sync(tail) == 3
        self.assert_whole_chain_stored(system)

    def test_data_write_naming_the_tail(self):
        system = System.boot()
        with system.process() as proc:
            tail = self.disclose_chain(proc)
            fd = proc.open("/pass/chain.out", "w")
            proc.dpapi.pass_write(fd, data=b"out", records=[
                proc.dpapi.record(fd, Attr.INPUT, proc.dpapi.ref_of(tail))])
            proc.close(fd)
        self.assert_whole_chain_stored(system)


class TestFlushOrder:
    """Ancestors first, in the order their refs appear in the rows: the
    order the recursive walk produced, recorded on it and pinned here."""

    #: (local pnode, attr) in sink order for the diamond below.
    EXPECTED = [(5, Attr.TYPE), (1, Attr.TYPE), (3, Attr.INPUT),
                (3, Attr.INPUT), (2, Attr.INPUT), (2, Attr.NAME),
                (4, Attr.INPUT), (4, Attr.INPUT)]

    def diamond(self, dist) -> ObjectRef:
        """d <- {c, b}, c <- {e, a}, b <- a: cached, nothing flushed."""
        a, b, c, d, e = (transient_ref(local=i) for i in range(1, 6))
        for record in (ProvenanceRecord(a, Attr.TYPE, "DATASET"),
                       ProvenanceRecord(b, Attr.INPUT, a),
                       ProvenanceRecord(b, Attr.NAME, "b"),
                       ProvenanceRecord(c, Attr.INPUT, e),
                       ProvenanceRecord(c, Attr.INPUT, a),
                       ProvenanceRecord(e, Attr.TYPE, "DATASET"),
                       ProvenanceRecord(d, Attr.INPUT, c),
                       ProvenanceRecord(d, Attr.INPUT, b)):
            dist.dispatch(record)
        return d

    @staticmethod
    def order(flushed) -> list:
        return [(local_of(record.subject.pnode), record.attr)
                for _, record in flushed]

    def test_sync(self):
        dist, flushed = make_distributor()
        dist.sync(self.diamond(dist).pnode)
        assert self.order(flushed) == self.EXPECTED

    def test_descendant_record(self):
        dist, flushed = make_distributor()
        tail = self.diamond(dist)
        dist.dispatch(ProvenanceRecord(persistent_ref(), Attr.INPUT, tail))
        assert self.order(flushed[:-1]) == self.EXPECTED

    def test_descendant_batch(self):
        dist, flushed = make_distributor()
        tail = self.diamond(dist)
        dist.flush_batch(RecordBatch(
            [ProvenanceRecord(persistent_ref(), Attr.INPUT, tail)]))
        assert self.order(flushed[:-1]) == self.EXPECTED
