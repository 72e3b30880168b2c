"""Unit tests for the provenance log, Waldo, and crash recovery."""

import hashlib
import random

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.kernel.clock import SimClock
from repro.kernel.params import LogParams
from repro.storage.log import (
    LogSegment,
    ProvenanceLog,
    _zero_digest,
    data_digest,
    md5_unpack,
    md5_value,
)
from repro.storage.waldo import Waldo


def rec(pnode=1, version=0, attr=Attr.NAME, value="x"):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


def make_log(**params):
    clock = SimClock()
    written = []
    log = ProvenanceLog(clock, LogParams(**params),
                        disk_write=written.append)
    return log, clock, written


class TestLogBuffering:
    def test_append_is_not_durable(self):
        log, _, written = make_log()
        log.append(rec())
        assert written == []
        assert log.buffered_records == 1

    def test_flush_writes_once_with_framing(self):
        log, _, written = make_log()
        log.append(rec())
        log.append(rec(attr=Attr.TYPE))
        txn = log.flush()
        assert txn == 1
        assert len(written) == 1
        # 2 records + BEGINTXN + ENDTXN live in the current segment.
        assert len(log.current.records) == 4
        attrs = [r.attr for r in log.current.records]
        assert attrs[0] == Attr.BEGINTXN
        assert attrs[-1] == Attr.ENDTXN

    def test_empty_flush_is_noop(self):
        log, _, written = make_log()
        assert log.flush() is None
        assert written == []

    def test_txn_ids_increase(self):
        log, _, _ = make_log()
        log.append(rec())
        first = log.flush()
        log.append(rec(attr=Attr.TYPE))
        second = log.flush()
        assert second == first + 1


class TestRotation:
    def test_size_based_rotation(self):
        log, _, _ = make_log(max_size=200)
        for i in range(50):
            log.append(rec(value=f"name-{i}"))
            log.flush()
        closed = log.closed_segments
        assert closed and len(closed) == log.rotations
        assert [s.index for s in closed] == list(range(len(closed)))
        assert log.current.index == len(closed)

    def test_dormancy_rotation(self):
        log, clock, _ = make_log(dormancy=5.0)
        log.append(rec())
        log.flush()
        clock.advance(10.0)
        log.tick()
        assert log.closed_segments or log.current.nbytes == 0

    def test_rotate_empty_is_noop(self):
        log, _, _ = make_log()
        assert log.rotate() is None


class TestCrash:
    def test_buffered_records_lost(self):
        log, _, _ = make_log()
        log.append(rec())
        assert log.crash() == 1
        assert log.buffered_records == 0

    def test_torn_tail_reparses(self):
        log, _, _ = make_log()
        for i in range(5):
            log.append(rec(value=f"n{i}"))
        log.flush()
        before = len(log.current.records)
        log.crash(drop_tail_bytes=3)
        assert len(log.current.records) == before - 1


class TestSegmentRecordsView:
    """``LogSegment.records`` is a sized view of the flat ``rows``."""

    def segment(self):
        log, _, _ = make_log()
        for i in range(3):
            log.append(rec(value=f"n{i}"))
        log.flush()
        return log.current

    def test_len_index_and_iteration(self):
        segment = self.segment()
        view = segment.records
        assert len(view) == 5 == len(segment.rows) // 3
        assert view.rows is segment.rows            # nothing materialized
        assert view[0].attr == Attr.BEGINTXN and view[-1].attr == Attr.ENDTXN
        assert view[1] == rec(value="n0")
        assert [r.value for r in view][1:4] == ["n0", "n1", "n2"]
        assert all(type(r) is ProvenanceRecord for r in view)

    def test_assignment_flattens_records(self):
        segment = self.segment()
        segment.records = [rec(value="only")]
        assert segment.rows == [ObjectRef(1, 0), Attr.NAME, "only"]
        assert list(segment.records) == [rec(value="only")]

    def test_truncate_tail_redecodes_rows(self):
        segment = self.segment()
        whole = list(segment.records)
        segment.truncate_tail(1)                    # cuts into ENDTXN
        assert list(segment.records) == whole[:-1]
        assert len(segment.rows) == 3 * 4
        segment.truncate_tail(0)                    # no-op
        assert len(segment.records) == 4

    def test_append_is_one_row(self):
        segment = LogSegment(3)
        segment.append(rec(value="x"), b"raw")
        assert segment.rows == [ObjectRef(1, 0), Attr.NAME, "x"]
        assert bytes(segment.raw) == b"raw" and segment.nbytes == 3


class TestWaldo:
    def test_drain_inserts_committed_records(self):
        log, _, _ = make_log()
        waldo = Waldo(log)
        log.append(rec(pnode=1))
        log.append(rec(pnode=2, attr=Attr.TYPE, value="FILE"))
        log.flush()
        log.rotate()
        inserted = waldo.drain()
        assert inserted == 2
        assert len(waldo.database) == 2

    def test_txn_framing_not_inserted(self):
        log, _, _ = make_log()
        waldo = Waldo(log)
        log.append(rec())
        log.flush()
        log.rotate()
        waldo.drain()
        attrs = {r.attr for r in waldo.database.all_records()}
        assert Attr.BEGINTXN not in attrs
        assert Attr.ENDTXN not in attrs

    def test_orphaned_txn_kept_aside(self):
        """A BEGINTXN with no ENDTXN (client died) must not enter the DB."""
        log, _, _ = make_log()
        waldo = Waldo(log)
        segment = LogSegment(0)
        subject = ObjectRef(9, 0)
        orphan = ProvenanceRecord(subject, Attr.NAME, "never-committed")
        for record in (
            ProvenanceRecord(subject, Attr.BEGINTXN, 77),
            orphan,
        ):
            segment.append(record, b"")
        log.closed_segments.append(segment)
        waldo.drain()
        assert len(waldo.database) == 0
        assert waldo.orphaned == 1
        assert orphan not in list(waldo.database.all_records())

    def _drain_rows(self, records):
        log, _, _ = make_log()
        waldo = Waldo(log)
        segment = LogSegment(0)
        for record in records:
            segment.append(record, b"")
        log.closed_segments.append(segment)
        return waldo, waldo.drain()

    def test_frames_are_attributes_not_values(self):
        """A record whose *value* is the string "BEGINTXN"/"ENDTXN" is
        data, wherever it sits relative to real frames."""
        a = rec(pnode=1, value=Attr.BEGINTXN)
        b = rec(pnode=2, attr=Attr.ANNOTATION, value=Attr.ENDTXN)
        c = rec(pnode=3, value="plain")
        waldo, inserted = self._drain_rows([
            a, rec(attr=Attr.BEGINTXN, value=5), b, c,
            rec(attr=Attr.ENDTXN, value=5), b])
        assert inserted == 4 and waldo.orphaned == 0
        assert list(waldo.database.all_records()) == [a, b, b, c]

    def test_interleaved_transactions_commit_at_their_endtxn(self):
        """Two open transactions: each batch enters at its own ENDTXN
        position, unframed records in place, the unfinished one and a
        stray ENDTXN aside."""
        r = [rec(pnode=9, attr=Attr.ANNOTATION, value=f"r{i}")
             for i in range(6)]

        def begin(txn):
            return rec(attr=Attr.BEGINTXN, value=txn)

        def end(txn):
            return rec(attr=Attr.ENDTXN, value=txn)

        waldo, inserted = self._drain_rows([
            r[0],                       # unframed: straight in
            begin(1), r[1],
            begin(2), r[2],             # txn 1 still open underneath
            end(1),                     # commits r1; 2 stays current
            r[3], end(2),               # commits r2, r3
            end(7),                     # never opened: nothing
            begin(3), r[4],             # never closed: orphaned
            begin(4), end(4), r[5],     # empty txn, then unframed
        ])
        assert inserted == 5
        assert [record.value for record in
                waldo.database.all_records()] == ["r0", "r1", "r2", "r3",
                                                  "r5"]
        assert waldo.orphaned == 1
        assert r[4] not in list(waldo.database.all_records())

    def test_drain_is_idempotent(self):
        log, _, _ = make_log()
        waldo = Waldo(log)
        log.append(rec())
        log.flush()
        log.rotate()
        waldo.drain()
        assert waldo.drain() == 0

    def test_multiple_segments(self):
        log, _, _ = make_log(max_size=100)
        waldo = Waldo(log)
        for i in range(30):
            log.append(rec(value=f"long-name-{i:04d}"))
            log.flush()
        log.rotate()
        waldo.drain()
        assert len(waldo.database) == 30


class TestMd5Helpers:
    def test_digest_of_real_bytes(self):
        assert data_digest(b"abc", 3) == data_digest(b"abc", 999)

    def test_hole_digest_equals_zeros(self):
        assert data_digest(None, 16) == data_digest(b"\x00" * 16, 16)

    def test_zero_digest_for_lengths_in_any_order(self):
        """More distinct lengths than either memo holds (4,096), arriving
        out of order: the base is always the nearest shorter prefix."""
        lengths = list(range(0, 4300 * 3, 3)) + [65536, 65537, 200_001]
        random.Random(14).shuffle(lengths)
        for length in lengths + lengths[:50]:
            assert _zero_digest(length) == hashlib.md5(
                b"\x00" * length).digest(), length

    def test_md5_value_roundtrip(self):
        digest = data_digest(b"payload", 7)
        value = md5_value(1024, 7, digest)
        assert md5_unpack(value) == (1024, 7, digest)
