"""Crash-recovery tests: WAP guarantees after simulated failures."""

import pytest

from repro.core.records import Attr
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.storage import codec
from repro.storage.log import LogSegment
from repro.storage.recovery import recover
from repro.system import System
from tests.conftest import write_file


class TestCleanRecovery:
    def test_recovery_of_healthy_volume_is_clean(self, system):
        write_file(system, "/pass/a", b"data")
        # Crash *before* Waldo drains: the log still holds everything.
        report = recover(system.kernel.volume("pass").lasagna)
        assert report.clean
        assert report.committed_records

    def test_recovered_records_match_what_waldo_would_insert(self, system):
        write_file(system, "/pass/a", b"data")
        from repro.storage.database import ProvenanceDatabase
        rebuilt = ProvenanceDatabase("rebuilt")
        recover(system.kernel.volume("pass").lasagna, database=rebuilt)
        system.sync()                    # now let Waldo process the same log
        original = system.database("pass")
        assert {r.key() for r in rebuilt.all_records()} >= {
            r.key() for r in original.all_records()
        }

    def test_recovery_after_waldo_drain_sees_empty_log(self, system):
        """Waldo removes processed log files; recovery then has nothing
        to replay -- the database is already the durable truth."""
        write_file(system, "/pass/a", b"data")
        system.sync()
        report = recover(system.kernel.volume("pass").lasagna)
        assert report.clean
        assert not report.committed_records


class TestCrashBeforeDataWrite:
    def test_inflight_data_flagged_inconsistent(self):
        """Crash between the WAP flush and the data write: provenance is
        durable, the data is not -- recovery must flag that file."""
        # The second data write dies in the WAP window.
        plan = FaultPlan().add("lasagna.write.pre_data", "crash", nth=2)
        system = System.boot(faults=FaultInjector(plan))
        write_file(system, "/pass/victim", b"original")
        lasagna = system.kernel.volume("pass").lasagna
        with pytest.raises(CrashFault):
            write_file(system, "/pass/victim", b"NEW CONTENT")
        lasagna.crash()
        report = recover(lasagna)
        flagged_pnodes = {ref.pnode for ref, _, _ in report.inconsistent_data}
        victim = system.kernel.vfs.resolve("/pass/victim")
        assert victim.pnode in flagged_pnodes
        # The original (completed) write must NOT be flagged: its MD5
        # matches offset 0..8 which still holds "original".
        offsets = [(off, ln) for ref, off, ln in report.inconsistent_data
                   if ref.pnode == victim.pnode]
        assert (0, len(b"NEW CONTENT")) in offsets

    def test_unflushed_buffer_lost_silently(self, system):
        """Records still in the log buffer (never flushed) vanish on
        crash; that is allowed because the data they describe was never
        written either (WAP)."""
        lasagna = system.kernel.volume("pass").lasagna
        write_file(system, "/pass/r", b"x")
        with system.process() as proc:
            # rename puts a fresh NAME record about a persistent file in
            # the log buffer; no data write follows, so nothing flushes.
            proc.rename("/pass/r", "/pass/renamed")
            assert lasagna.log.buffered_records > 0
            lost = lasagna.crash()
        assert lost > 0
        assert lasagna.log.buffered_records == 0


class TestTornLog:
    def test_torn_tail_recovers_prefix(self, system):
        write_file(system, "/pass/a", b"aaa")
        write_file(system, "/pass/b", b"bbb")
        lasagna = system.kernel.volume("pass").lasagna
        lasagna.crash(drop_tail_bytes=5)
        report = recover(lasagna)
        # The first file's provenance survived in full.
        names = {r.value for r in report.committed_records
                 if r.attr == Attr.NAME}
        assert "/pass/a" in names

    def test_torn_txn_is_orphaned_or_dropped(self, system):
        """Tearing into the last transaction must not let its records
        into the recovered database."""
        write_file(system, "/pass/a", b"aaa")
        lasagna = system.kernel.volume("pass").lasagna
        # Tear off the ENDTXN of the last flush (ENDTXN encodes to
        # ~ 22 bytes; drop a bit more to be sure).
        lasagna.crash(drop_tail_bytes=25)
        report = recover(lasagna)
        assert report.orphaned_records or report.torn_bytes > 0


def _eager_recovery(raw: bytes):
    """What recovery finds in a segment's bytes, read the way the log
    wrote them when every record was encoded on append: decode the
    prefix, count what did not decode, walk the BEGINTXN/ENDTXN
    frames."""
    decoded = list(codec.decode_stream(raw))
    torn = len(raw) - sum(len(codec.encode_record(r)) for r in decoded)
    committed, orphaned, open_txn, pending = [], [], None, []
    for record in decoded:
        if record.attr == Attr.BEGINTXN:
            orphaned += pending
            open_txn, pending = record.value, []
        elif record.attr == Attr.ENDTXN:
            if record.value == open_txn:
                committed += pending
            open_txn, pending = None, []
        elif open_txn is None:
            committed.append(record)
        else:
            pending.append(record)
    return decoded, torn, committed, orphaned + pending


class TestTornTailAtEveryOffset:
    def test_every_cut_across_the_last_two_records(self, system):
        """A tear at any byte of the segment's last two records: the
        bytes are the eagerly encoded ones minus the cut, the rows are
        what those bytes decode to, and recovery reports the same torn
        bytes, committed and orphaned records.  A second cut (1 byte
        more) trims the torn tail or crosses into the record before."""
        write_file(system, "/pass/a", b"aaa")
        write_file(system, "/pass/b", b"bbb")
        lasagna = system.kernel.volume("pass").lasagna
        log = lasagna.log
        whole = log.current
        eager = b"".join(codec.encode_record(r) for r in whole.records)
        assert whole.raw == eager and whole.nbytes == len(eager)
        last_two = sum(map(codec.encoded_size, list(whole.records)[-2:]))
        try:
            for cut in range(1, last_two + 1):
                for extra in (0, 1):
                    segment = log.current = LogSegment(whole.index)
                    segment.extend(whole.nbytes, list(whole.rows))
                    segment.truncate_tail(cut)
                    segment.truncate_tail(extra)
                    kept = eager[:len(eager) - cut - extra]
                    decoded, torn, committed, orphaned = _eager_recovery(kept)
                    assert segment.raw == kept
                    assert segment.nbytes == len(kept)
                    assert list(segment.records) == decoded
                    report = recover(lasagna)
                    assert report.torn_bytes == torn
                    assert report.committed_records == committed
                    assert report.orphaned_records == orphaned
                    assert not report.inconsistent_data
        finally:
            log.current = whole


class TestOrphanedNfsStyleTxn:
    def test_recovery_drops_uncommitted_txn_records(self, system):
        """Simulates a client that sent BEGINTXN + records but died
        before ENDTXN."""
        from repro.core.pnode import ObjectRef
        from repro.core.records import ProvenanceRecord
        lasagna = system.kernel.volume("pass").lasagna
        log = lasagna.log
        subject = ObjectRef(999, 0)
        txn = log.next_txn_id()
        # Hand-write an unterminated transaction into the segment.
        for record in (
            ProvenanceRecord(subject, Attr.BEGINTXN, txn),
            ProvenanceRecord(subject, Attr.NAME, "half-sent"),
        ):
            log.current.append(record)
        report = recover(lasagna)
        orphan_names = {r.value for r in report.orphaned_records
                        if r.attr == Attr.NAME}
        assert "half-sent" in orphan_names
        committed_names = {r.value for r in report.committed_records
                           if r.attr == Attr.NAME}
        assert "half-sent" not in committed_names
