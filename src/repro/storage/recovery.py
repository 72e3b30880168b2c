"""Crash recovery for the write-ahead provenance log (section 5.6).

After a crash, the log is the truth.  Recovery:

1. re-decodes every segment from raw bytes (a torn tail -- a crash in
   the middle of a sector write -- parses as far as it goes and the
   remainder is dropped);
2. separates *committed* transactions (BEGINTXN..ENDTXN both present)
   from *orphaned* ones, whose records are discarded -- this is how a
   dead NFS client's half-sent provenance disappears;
3. verifies every committed MD5 record against the bytes actually in
   the file: a mismatch identifies "precisely the data that was being
   written to disk at the time of a crash".

The WAP invariant this enforces: data may exist whose provenance is
flagged inconsistent, but no *unflagged* data lacks provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.storage import codec
from repro.storage.lasagna import Lasagna
from repro.storage.log import data_digest, md5_unpack


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass."""

    committed_records: list[ProvenanceRecord] = field(default_factory=list)
    orphaned_records: list[ProvenanceRecord] = field(default_factory=list)
    #: (ref, offset, length): committed provenance whose data checksum
    #: does not match what is in the file -- in-flight at crash time.
    inconsistent_data: list[tuple[ObjectRef, int, int]] = field(
        default_factory=list)
    torn_bytes: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was orphaned or inconsistent."""
        return not self.orphaned_records and not self.inconsistent_data


def recover(lasagna: Lasagna, database=None,
            consume: bool = False) -> RecoveryReport:
    """Replay a volume's provenance log after a crash.

    Committed records are optionally inserted into ``database`` (pass
    Waldo's database to rebuild it); the report lists orphans and any
    data whose checksum proves it was mid-write.

    With ``consume=True`` the log is reset after the replay (the
    recovered records now live in the database), which makes recovery
    idempotent: a second pass reports clean and inserts nothing.  The
    default leaves the log untouched (report-only inspection).
    """
    report = RecoveryReport()
    volume = lasagna.volume
    log = lasagna.log

    for segment in log.all_segments():
        raw = bytes(segment.raw)
        decoded = list(codec.decode_stream(raw))
        consumed = _bytes_consumed(decoded)
        report.torn_bytes += len(raw) - consumed
        _replay(decoded, report)

    for record in report.committed_records:
        if record.attr == Attr.MD5 and isinstance(record.value, bytes):
            _verify_md5(volume, record, report)

    if database is not None:
        database.insert_many(report.committed_records)
    if consume:
        log.reset_after_recovery()
    # Recovery is rare and diagnosis-critical: journal it unsampled so
    # a crashtest failure can be read back replay by replay.
    lasagna.obs.event(
        "recovery.replay", layer="waldo", volume=volume.name,
        always=True, committed=len(report.committed_records),
        orphaned=len(report.orphaned_records),
        inconsistent=len(report.inconsistent_data),
        torn_bytes=report.torn_bytes, consumed=consume,
        inserted=database is not None)
    return report


def _bytes_consumed(records: list[ProvenanceRecord]) -> int:
    return sum(codec.encoded_size(record) for record in records)


def _replay(records: list[ProvenanceRecord], report: RecoveryReport) -> None:
    open_txns: dict[int, list[ProvenanceRecord]] = {}
    current: Optional[int] = None
    for record in records:
        if record.attr == Attr.BEGINTXN:
            current = int(record.value)
            open_txns[current] = []
        elif record.attr == Attr.ENDTXN:
            txn = int(record.value)
            report.committed_records.extend(open_txns.pop(txn, ()))
            if current == txn:
                current = None
        elif current is not None:
            open_txns[current].append(record)
        else:
            report.committed_records.append(record)
    for batch in open_txns.values():
        report.orphaned_records.extend(batch)


def _verify_md5(volume, record: ProvenanceRecord,
                report: RecoveryReport) -> None:
    offset, length, digest = md5_unpack(record.value)
    inode = _find_inode(volume, record.subject.pnode)
    if inode is None:
        # The file is gone entirely; its last write clearly never
        # became ordinary durable state.
        report.inconsistent_data.append((record.subject, offset, length))
        return
    actual = inode.data.read(offset, length)
    if len(actual) < length:
        actual = actual + b"\x00" * (length - len(actual))
    if data_digest(actual, length) != digest:
        report.inconsistent_data.append((record.subject, offset, length))


def _find_inode(volume, pnode: int):
    for inode in volume.live_inodes():
        if inode.pnode == pnode:
            return inode
    return None
