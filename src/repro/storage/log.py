"""The write-ahead provenance (WAP) log (section 5.6).

PASSv1 wrote provenance straight into databases; that was "neither
flexible nor scalable", so PASSv2 appends records to a log that Waldo
later drains into the database.  The log guarantees:

* **WAP ordering** -- all provenance records describing a block of data
  reach the disk before the data does (the caller, Lasagna, flushes the
  log before issuing the data write);
* **transactional framing** -- each flush is wrapped in BEGINTXN/ENDTXN
  records carrying a transaction id, and data writes contribute an MD5
  record, so recovery can discard orphaned provenance and identify data
  that was in flight during a crash;
* **rotation** -- when the log exceeds a maximum size or has been
  dormant too long, the kernel closes it and starts a new one; the
  closed segment waits on ``closed_segments`` until Waldo has processed
  it (the paper's Waldo learns of it through inotify).

The log keeps records as flat rows plus an arithmetic byte count
(``codec.encoded_nbytes``): the count is what the disk is charged for,
and the bytes themselves are encoded only when something reads them
(:attr:`LogSegment.raw`: recovery, a torn-tail cut, tests).
"""

from __future__ import annotations

import functools
import hashlib
import struct
from bisect import bisect_right, insort
from typing import Callable, Optional

from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, Bundle, ProvenanceRecord, RecordBatch,
                                rows_of)
from repro.kernel.clock import SimClock
from repro.kernel.params import LogParams
from repro.obs import NULL_OBS
from repro.storage import codec

_MD5_META = struct.Struct(">QI")      # offset, length preceding the digest


#: Incremental MD5 states over all-zero prefixes, keyed by length, so a
#: hole digest costs only the delta from the nearest shorter prefix
#: (found by bisecting ``_ZERO_LENGTHS``, the keys in sorted order).
_ZERO_STATES: dict[int, "hashlib._Hash"] = {0: hashlib.md5()}
_ZERO_LENGTHS = [0]
_ZERO_CHUNK = b"\x00" * 65536


@functools.lru_cache(maxsize=4096)
def _zero_digest(length: int) -> bytes:
    base = _ZERO_LENGTHS[bisect_right(_ZERO_LENGTHS, length) - 1]
    state = _ZERO_STATES[base].copy()
    remaining = length - base
    while remaining > 0:
        step = min(remaining, len(_ZERO_CHUNK))
        state.update(_ZERO_CHUNK[:step])
        remaining -= step
    if length not in _ZERO_STATES and len(_ZERO_STATES) < 4096:
        # Idempotent content-keyed memo: every writer computes the same
        # state for a given length, so a lost or duplicated store under
        # concurrency costs time, never correctness (the dict is
        # written first: every listed length has its state).
        _ZERO_STATES[length] = state.copy()
        insort(_ZERO_LENGTHS, length)
    return state.digest()


def data_digest(data: Optional[bytes], length: int) -> bytes:
    """MD5 of a written chunk; hole writes digest as the zeros they read
    back as, so recovery can verify either kind uniformly (the digest of
    an N-byte hole is cached -- it only depends on N)."""
    if data is None:
        return _zero_digest(length)
    return hashlib.md5(data).digest()


def md5_value(offset: int, length: int, digest: bytes) -> bytes:
    """Pack an MD5 record value: where the data lives plus its digest."""
    return _MD5_META.pack(offset, length) + digest


def md5_unpack(value: bytes) -> tuple[int, int, bytes]:
    """Unpack an MD5 record value into (offset, length, digest)."""
    offset, length = _MD5_META.unpack_from(value, 0)
    return offset, length, value[_MD5_META.size:]


#: Encoded bytes of a flush's BEGINTXN/ENDTXN frame: fixed, since the
#: subject head and the integer transaction id are fixed-width.
_FRAME_NBYTES = codec.encoded_nbytes(
    (ObjectRef(0, 0), Attr.BEGINTXN, 0, ObjectRef(0, 0), Attr.ENDTXN, 0))


class LogSegment:
    """One closed (or in-progress) log file: its records as flat rows,
    and how many bytes their encoding fills on disk.

    The bytes themselves are only built when read (:attr:`raw`):
    recovery and a torn-tail cut read them, Waldo reads the rows.
    """

    def __init__(self, index: int):
        self.index = index
        #: The segment's records, as flat (subject, attr, value) rows.
        self.rows: list = []
        #: Bytes on disk: the rows' encoded length plus ``_torn``.
        self.nbytes = 0
        #: The partial record a torn crash left at the end (its first
        #: bytes), else empty.  A torn segment takes no more appends:
        #: the machine is down until recovery resets the log.
        self._torn = b""

    @property
    def raw(self) -> bytes:
        """The segment's on-disk bytes, encoded from the rows."""
        return codec.encode_rows(self.rows) + self._torn

    @property
    def records(self) -> RecordBatch:
        """The segment's records as a sized view of ``rows``: ``len``
        costs nothing, iterating or indexing mints the records read."""
        return RecordBatch.of_rows(self.rows)

    @records.setter
    def records(self, records) -> None:
        self.rows = rows_of(records)
        self.nbytes = codec.encoded_nbytes(self.rows)
        self._torn = b""

    def append(self, record: ProvenanceRecord) -> None:
        row = (record.subject, record.attr, record.value)
        self.extend(codec.encoded_nbytes(row), row)

    def extend(self, nbytes: int, *groups) -> None:
        """Append one flushed group: its encoded length plus its rows,
        as the flat pieces they arrive in."""
        self.nbytes += nbytes
        for rows in groups:
            self.rows += rows

    def truncate_tail(self, nbytes: int) -> None:
        """Crash simulation: drop the last ``nbytes`` of raw log.

        Whole records come off the end of ``rows``; the first bytes of
        a record the cut lands inside stay behind as the torn tail."""
        if nbytes <= 0:
            return
        keep = max(0, self.nbytes - nbytes)
        whole = self.nbytes - len(self._torn)
        if keep >= whole:
            self._torn = self._torn[:keep - whole]
        else:
            rows = self.rows
            while whole > keep:
                last = rows[-3:]
                del rows[-3:]
                whole -= codec.encoded_nbytes(last)
            self._torn = codec.encode_rows(last)[:keep - whole]
        self.nbytes = keep


class ProvenanceLog:
    """Per-volume provenance log with buffering and rotation."""

    def __init__(self, clock: SimClock, params: Optional[LogParams] = None,
                 disk_write: Optional[Callable[[int], None]] = None,
                 faults=None, obs=NULL_OBS, volume_name: str = "log"):
        self.clock = clock
        self.params = params or LogParams()
        #: Callable charging the disk for an append of N bytes; bound by
        #: Lasagna to the volume's provenance-log region.
        self._disk_write = disk_write or (lambda nbytes: None)
        #: Fault injector (repro.faults); None keeps flush() bare.
        self._faults = faults
        self.obs = obs
        self.volume_name = volume_name
        #: Buffered records (flat rows), not yet durable, and their
        #: encoded length: the one count of how much disk the next
        #: flush pays for (nothing is encoded until bytes are read).
        self._buffer: list = []
        self._buffer_bytes = 0
        self._next_txn = 1
        self._segment_index = 0
        self.current = LogSegment(self._segment_index)
        #: Closed segments not yet drained, oldest first: the one queue
        #: Waldo consumes and recovery replays.
        self.closed_segments: list[LogSegment] = []
        self._last_activity = clock.now
        # Statistics.
        self.records_logged = 0
        self.bytes_logged = 0
        self.flushes = 0
        self.txns_opened = 0
        self.rotations = 0
        self.batch_records = 0
        self.batch_flushes = 0

    def obs_counters(self) -> dict:
        """WAP log totals, harvested by the observability layer (the
        owning Lasagna registers this under its volume)."""
        return {
            "log_records": self.records_logged,
            "log_bytes": self.bytes_logged,
            "log_flushes": self.flushes,
            "txns_opened": self.txns_opened,
            "rotations": self.rotations,
            "buffered_records": len(self._buffer) // 3,
            "batch_records": self.batch_records,
            "batch_flushes": self.batch_flushes,
        }

    # -- buffering --------------------------------------------------------------

    def append(self, records) -> None:
        """Buffer one record, or a :class:`Bundle` of them in one call
        (not yet durable, and never committed from here: the caller's
        next explicit flush is the ordering point)."""
        self._buffer_rows(records.rows if isinstance(records, Bundle) else (
            records.subject, records.attr, records.value))

    def _buffer_rows(self, rows) -> int:
        """Buffer rows and count their bytes; returns how many records."""
        self._buffer += rows
        self._buffer_bytes += codec.encoded_nbytes(rows)
        return len(rows) // 3

    def append_batch(self, records) -> None:
        """Buffer a :class:`RecordBatch` (or any iterable of records)
        and group-commit past thresholds.

        The batched ingest entry point: the rows are sized here, and
        when the buffer crosses
        ``LogParams.group_commit_records`` / ``group_commit_bytes`` the
        whole group is flushed as one transaction.  A threshold flush is
        strictly *earlier* than the next WAP ordering point (the data
        write or sync that would have forced it), so group commit can
        never weaken write-ahead provenance.
        """
        self.batch_records += self._buffer_rows(rows_of(records))
        buffered = len(self._buffer) // 3
        size = self._buffer_bytes
        params = self.params
        if ((params.group_commit_records
                and buffered >= params.group_commit_records)
                or (params.group_commit_bytes
                    and size >= params.group_commit_bytes)):
            self.batch_flushes += 1
            with self.obs.span("log.group_commit", layer="lasagna",
                               volume=self.volume_name) as span:
                span.tag("records", buffered)
                self.obs.event("log.group_commit", layer="lasagna",
                               volume=self.volume_name,
                               records=buffered, nbytes=size,
                               txn=self._next_txn)
                self.flush()

    @property
    def buffered_records(self) -> int:
        return len(self._buffer) // 3

    def next_txn_id(self) -> int:
        txn = self._next_txn
        self._next_txn += 1
        self.txns_opened += 1
        return txn

    # -- durability ----------------------------------------------------------------

    def flush(self, txn_subject: Optional[ObjectRef] = None) -> Optional[int]:
        """Write buffered records to disk, framed as one transaction.

        ``txn_subject`` labels the BEGINTXN/ENDTXN records (the file the
        flush precedes); when the buffer is empty nothing is written and
        None is returned, else the transaction id.
        """
        buffer = self._buffer
        if not buffer:
            return None
        faults = self._faults
        if faults is not None:
            # Crashing here loses the whole buffer: never durable.
            faults.fire("log.flush.pre", records=len(buffer) // 3)
        txn = self.next_txn_id()
        subject = txn_subject or buffer[0]
        frame = (subject, Attr.BEGINTXN, txn, subject, Attr.ENDTXN, txn)
        # The disk charge: the payload was sized on append.
        nbytes = self._buffer_bytes + _FRAME_NBYTES
        self._buffer = []
        self._buffer_bytes = 0

        self._disk_write(nbytes)
        if faults is not None:
            action = faults.fire("log.flush.append", nbytes=nbytes, txn=txn)
            if action is not None and action.kind == "torn":
                # The batch reached the disk queue; a mid-sector crash
                # tears its tail off, cutting into the ENDTXN record so
                # recovery sees an orphaned transaction.
                self.current.extend(nbytes, frame[:3], buffer, frame[3:])
                tear = max(1, min(nbytes - 1, int(nbytes * action.param)))
                self.current.truncate_tail(tear)
                from repro.faults import CrashFault
                raise faults.halt(CrashFault(
                    f"torn log append: {tear} of {nbytes} bytes lost "
                    f"(txn {txn})", site=action.site, hit=action.hit,
                    torn_bytes=tear))
        self.current.extend(nbytes, frame[:3], buffer, frame[3:])
        self.records_logged += len(buffer) // 3 + 2
        self.bytes_logged += nbytes
        self.flushes += 1
        self._last_activity = self.clock.now
        if faults is not None:
            faults.fire("log.flush.post", txn=txn)
        self._maybe_rotate()
        return txn

    def _maybe_rotate(self) -> None:
        if self.current.nbytes >= self.params.max_size:
            self.rotate()

    def tick(self) -> None:
        """Dormancy check (the kernel's periodic timer)."""
        if (self.current.nbytes
                and self.clock.now - self._last_activity >= self.params.dormancy):
            self.rotate()

    def rotate(self) -> Optional[LogSegment]:
        """Close the current log file and start a new one."""
        if not self.current.nbytes:
            return None
        segment = self.current
        self.closed_segments.append(segment)
        self.rotations += 1
        self._segment_index += 1
        self.current = LogSegment(self._segment_index)
        return segment

    # -- crash simulation --------------------------------------------------------------

    def crash(self, drop_tail_bytes: int = 0) -> int:
        """Simulate a machine crash.

        Buffered (unflushed) records are lost; optionally the tail of the
        current on-disk segment is torn (an in-flight sector).  Returns
        the number of buffered records that were lost.
        """
        lost = len(self._buffer) // 3
        self._buffer = []
        self._buffer_bytes = 0
        if drop_tail_bytes:
            self.current.truncate_tail(drop_tail_bytes)
        return lost

    def all_segments(self) -> list[LogSegment]:
        """Closed segments plus the current one (recovery scans all)."""
        return [*self.closed_segments, self.current]

    def reset_after_recovery(self) -> None:
        """Consume the log after a recovery replay: every surviving
        record is now in the database, so the on-disk segments are
        deleted and a fresh one opened.  This is what makes a second
        ``recover(consume=True)`` pass a no-op (idempotence)."""
        self.closed_segments = []
        self._segment_index += 1
        self.current = LogSegment(self._segment_index)
        self._buffer = []
        self._buffer_bytes = 0
