"""Waldo: the user-level daemon draining logs into the database.

Waldo processes closed log segments (the paper watches for them with
Linux inotify; here they wait, oldest first, on the log's
``closed_segments``), validates the transactional framing, and inserts
committed records into the provenance database.  Records inside a
transaction that never saw its ENDTXN are *orphaned* -- a client or
machine died mid-write -- and are kept aside rather than entering the
database, exactly the recovery behaviour the NFS transaction design was
built for (section 6.1.2).  A drained segment is gone: the database is
what remains of it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.records import Attr, RecordBatch
from repro.obs import NULL_OBS
from repro.storage.database import ProvenanceDatabase
from repro.storage.log import LogSegment, ProvenanceLog


class Waldo:
    """One Waldo daemon per PASS volume, draining that volume's log."""

    def __init__(self, log: ProvenanceLog,
                 database: Optional[ProvenanceDatabase] = None,
                 name: str = "waldo", obs=NULL_OBS, faults=None):
        self.log = log
        self.database = database or ProvenanceDatabase(name)
        self.name = name
        self.obs = obs
        #: Fault injector (repro.faults); None keeps drain() bare.
        self._faults = faults
        #: How many records were discarded because their transaction
        #: never committed.
        self.orphaned = 0
        self.segments_processed = 0
        self.records_inserted = 0
        self.drains = 0
        obs.add_collector("waldo", self._obs_counters, volume=name)

    def _obs_counters(self) -> dict:
        return {
            "records_inserted": self.records_inserted,
            "segments_processed": self.segments_processed,
            "drains": self.drains,
            "orphaned_records": self.orphaned,
            "database_records": len(self.database),
        }

    def drain(self) -> int:
        """Process every closed segment on the log; returns records
        inserted.

        Call :meth:`ProvenanceLog.rotate` (or Lasagna.sync) first if the
        current segment should be included.
        """
        inserted = 0
        segments = 0
        with self.obs.span("waldo.drain", layer="waldo",
                           volume=self.name) as span:
            closed = self.log.closed_segments
            while closed:
                # Peek, process, then pop: a crash at the injection
                # site leaves the segment on the log for recovery (no
                # records lost, none double-inserted -- _process is
                # atomic).
                segment = closed[0]
                if self._faults is not None:
                    self._faults.fire("waldo.drain.segment",
                                      segment=segment.index,
                                      records=len(segment.records))
                inserted += self._process(segment)
                del closed[0]
                self.segments_processed += 1
                segments += 1
            span.tag("records", inserted)
            self.obs.event("waldo.drain", layer="waldo", volume=self.name,
                           records=inserted, segments=segments,
                           orphaned=self.orphaned)
        self.drains += 1
        self.records_inserted += inserted
        # Replay throughput: how many committed records one drain moved
        # into the database (percentiles over drains).
        self.obs.observe("waldo", "records_per_drain", inserted,
                         volume=self.name)
        return inserted

    def _process(self, segment: LogSegment) -> int:
        """Insert a segment's committed transactions into the database.

        The transaction walk first accumulates every row that is allowed
        into the database -- committed batches at their ENDTXN position,
        unframed records in place -- and hands them over as one
        ``insert_many`` call per segment.  Frames are found on the
        attribute column (a *value* may equal ``"BEGINTXN"``) and what
        lies between two of them moves as one slice.
        """
        rows = segment.rows
        attrs = rows[1::3]

        def find(attr: str, start: int) -> int:
            try:
                return attrs.index(attr, start)
            except ValueError:
                return len(attrs)

        ready: list = []
        open_txns: dict[int, list] = {}
        current_txn: Optional[int] = None
        position = 0
        begin, end = find(Attr.BEGINTXN, 0), find(Attr.ENDTXN, 0)
        while True:
            frame = min(begin, end)
            # Rows outside any transaction frame (a segment not written
            # by ``ProvenanceLog.flush``) go straight in.
            target = ready if current_txn is None else open_txns[current_txn]
            target += rows[3 * position:3 * frame]
            if frame == len(attrs):
                break
            txn = int(rows[3 * frame + 2])
            if frame == begin:
                current_txn = txn
                open_txns[txn] = []
                begin = find(Attr.BEGINTXN, frame + 1)
            else:
                ready += open_txns.pop(txn, ())
                if current_txn == txn:
                    current_txn = None
                end = find(Attr.ENDTXN, frame + 1)
            position = frame + 1
        for orphans in open_txns.values():
            self.orphaned += len(orphans) // 3
        if not ready:
            return 0
        with self.obs.span("waldo.drain_batch", layer="waldo",
                           volume=self.name) as span:
            span.tag("records", len(ready) // 3)
            self.database.insert_many(RecordBatch.of_rows(ready))
        return len(ready) // 3

    def __repr__(self) -> str:
        return (f"<Waldo {self.name}: {len(self.database)} records, "
                f"{self.orphaned} orphaned>")
