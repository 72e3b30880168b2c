"""The distributor: provenance for objects that are not PASS files.

Processes, pipes, ``pass_mkobj`` objects, and files on non-PASS volumes
are provenanced but not persistent on any PASS-enabled volume.  The
distributor caches their records in memory and materializes them on a
PASS volume only when:

* they become part of the ancestry of a persistent object there (the
  flush happens *before* the descendant's record, preserving the
  write-ahead-provenance invariant that no record ever references an
  ancestor whose provenance is not already on disk), or
* the application forces it with ``pass_sync``.

Records whose subjects never reach either state are discarded when the
object dies -- correct behaviour for purely transient objects such as
processes with no surviving descendants (section 5.5).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import UnknownPnode, VolumeError
from repro.core.pnode import TRANSIENT_VOLUME, ObjectRef, volume_of
from repro.core.records import (PLAIN_VALUE_TYPES, Bundle, ProvenanceRecord,
                                RecordBatch, records_from, subject_runs)

#: A sink accepting (volume_name, Bundle) -- Lasagna's provenance-only
#: write path, bound in by the kernel assembly.
FlushSink = Callable[[str, Bundle], None]


class Distributor:
    """Routes finalized records to a PASS volume log or an in-memory cache."""

    def __init__(self, flush_sink: FlushSink,
                 volume_name_of: Callable[[int], str],
                 default_volume: Optional[str] = None,
                 faults=None):
        self._flush_sink = flush_sink
        self._volume_name_of = volume_name_of
        self.default_volume = default_volume
        #: Fault injector (repro.faults); None keeps flush() bare.
        self._faults = faults
        #: Cached records of not-yet-persistent objects, by pnode, as
        #: flat (subject, attr, value) rows.
        self._cache: dict[int, list] = {}
        #: Volume each flushed transient pnode was assigned to.
        self._assigned: dict[int, str] = {}
        #: Volume hints from pass_mkobj.
        self._hints: dict[int, str] = {}
        #: While flush_batch runs, volume-bound rows accumulate here
        #: (per-volume, in admission order) instead of hitting the sink
        #: one Bundle at a time; None outside a batch.
        self._pending: Optional[dict[str, list]] = None
        # Statistics.
        self.records_cached = 0
        self.records_flushed = 0
        self.records_discarded = 0
        self.flush_calls = 0
        self.batches_dispatched = 0

    def bind_obs(self, obs) -> None:
        """Expose cache/flush totals to the observability layer
        (snapshot-time collector; dispatch() itself is untouched)."""
        obs.add_collector("distributor", self._obs_counters)

    def _obs_counters(self) -> dict:
        return {
            "records_cached": self.records_cached,
            "records_flushed": self.records_flushed,
            "records_discarded": self.records_discarded,
            "flush_calls": self.flush_calls,
            "batches_dispatched": self.batches_dispatched,
            "pending_pnodes": len(self._cache),
            "assigned_pnodes": len(self._assigned),
        }

    # -- configuration ----------------------------------------------------------

    def set_hint(self, pnode: int, volume_name: str) -> None:
        """Remember the volume a pass_mkobj caller asked for."""
        self._hints[pnode] = volume_name

    # -- record routing -----------------------------------------------------------

    def dispatch(self, record: ProvenanceRecord) -> None:
        """Accept one finalized record from the analyzer."""
        pnode = record.subject.pnode
        if self._is_persistent(pnode):
            volume = self._volume_name_of(volume_of(pnode))
            self._flush_ancestors(record, volume)
            self._flush_sink(volume, Bundle([record]))
            self.records_flushed += 1
        elif pnode in self._assigned:
            # Already materialized somewhere: follow-on records go there.
            volume = self._assigned[pnode]
            self._flush_ancestors(record, volume)
            self._flush_sink(volume, Bundle([record]))
            self.records_flushed += 1
        else:
            self._cache.setdefault(pnode, []).extend(
                (record.subject, record.attr, record.value))
            self.records_cached += 1

    def flush_batch(self, batch: RecordBatch) -> None:
        """Accept a batch of finalized records from the analyzer.

        Routing is record-for-record identical to :meth:`dispatch`
        (persistent / already-assigned records bind to a volume,
        ancestors materialize first, everything else is cached), but
        volume-bound records accumulate in per-volume buffers and reach
        the sink as one :class:`RecordBatch` per volume instead of one
        Bundle per record.  Per-volume record order -- the order the WAP
        log and the database see -- is exactly the per-record order.

        Batches arrive as runs of records about one subject, and the
        routing decision is made once per run: a pnode's routing can
        only flip from cached to assigned when a routed record
        references it, and a run never references its own subject from
        the cache (a cached run flushes nothing).  A run with no
        cross-reference moves as one slice; a routed run carrying one
        goes row by row, each ancestor ahead of the record naming it.
        """
        pending: dict[str, list] = {}
        self._pending = pending
        flushed = cached = 0
        try:
            cache = self._cache
            assigned = self._assigned
            volume_name_of = self._volume_name_of
            rows = batch.rows
            bounds = subject_runs(rows)
            # One class test for the whole batch: without a
            # cross-reference every routed run moves as one slice.
            plain = PLAIN_VALUE_TYPES.issuperset(map(type, rows[2::3]))
            for start, stop in zip(bounds, bounds[1:]):
                pnode = rows[start].pnode
                volume_id = volume_of(pnode)
                if volume_id != TRANSIENT_VOLUME:
                    volume = volume_name_of(volume_id)
                elif pnode in assigned:
                    volume = assigned[pnode]
                else:
                    bucket = cache.get(pnode)
                    if bucket is None:
                        cache[pnode] = rows[start:stop]
                    else:
                        bucket += rows[start:stop]
                    cached += (stop - start) // 3
                    continue
                bucket = pending.get(volume)
                if bucket is None:
                    bucket = pending[volume] = []
                if plain or PLAIN_VALUE_TYPES.issuperset(
                        map(type, rows[start + 2:stop:3])):
                    bucket += rows[start:stop]
                    flushed += (stop - start) // 3
                    continue
                for offset in range(start, stop, 3):
                    value = rows[offset + 2]
                    if isinstance(value, ObjectRef) and value.pnode in cache:
                        # Ancestors first: write-ahead provenance across
                        # objects.  flush() appends into ``pending`` (the
                        # list ``bucket`` is), so ancestor records
                        # precede this one.
                        self.flush(value.pnode, volume)
                    bucket += rows[offset:offset + 3]
                    flushed += 1
        finally:
            self._pending = None
            self.records_flushed += flushed
            self.records_cached += cached
        self.batches_dispatched += 1
        for volume, rows in pending.items():
            self._flush_sink(volume, RecordBatch.of_rows(rows))

    def _flush_ancestors(self, record: ProvenanceRecord, volume: str) -> None:
        """Materialize cached provenance of any ancestor the record names."""
        if isinstance(record.value, ObjectRef):
            self.flush(record.value.pnode, volume)

    @staticmethod
    def _is_persistent(pnode: int) -> bool:
        return volume_of(pnode) != TRANSIENT_VOLUME

    # -- flushing ---------------------------------------------------------------

    def flush(self, pnode: int, volume: Optional[str] = None) -> int:
        """Materialize the cached provenance of one object (recursively
        including its cached ancestors) onto ``volume``.

        Returns the number of records written.  A no-op for objects with
        no cached records (persistent objects, already-flushed objects).
        Ancestors first (write-ahead provenance across objects), in the
        order their refs appear in the rows: a post-order walk on an
        explicit stack, so a chain of any depth flushes whole.
        """
        cache = self._cache
        if pnode not in cache:
            return 0
        taken, volume = self._take(pnode, volume)
        stack = [(taken, self._cached_ancestors(taken))]
        while stack:
            rows, ancestors = stack[-1]
            for ancestor in ancestors:
                # Still cached: an ancestor flushed deeper down is not.
                if ancestor in cache:
                    ancestor_rows, _ = self._take(ancestor, volume)
                    stack.append((ancestor_rows,
                                  self._cached_ancestors(ancestor_rows)))
                    break
            else:
                stack.pop()
                self._emit(rows, volume)
        return len(taken) // 3

    def _cached_ancestors(self, rows: list):
        """The cached pnodes the rows reference, in row order: the only
        values of ``rows`` the flush walk has to look at again."""
        cache = self._cache
        return iter([value.pnode for value in rows[2::3]
                     if isinstance(value, ObjectRef) and value.pnode in cache])

    def _take(self, pnode: int, volume: Optional[str]) -> tuple[list, str]:
        """Pop one object's cached rows and bind it to a volume."""
        if self._faults is not None:
            # Cached transient records are about to become durable.
            self._faults.fire("distributor.flush", pnode=pnode,
                              records=len(self._cache[pnode]) // 3)
        self.flush_calls += 1
        volume = (volume or self._hints.get(pnode)
                  or self._assigned.get(pnode) or self.default_volume)
        if volume is None:
            raise VolumeError(
                f"no PASS volume available to hold provenance of pnode {pnode}"
            )
        self._assigned[pnode] = volume
        return self._cache.pop(pnode), volume

    def _emit(self, rows: list, volume: str) -> None:
        pending = self._pending
        if pending is not None:
            # Inside flush_batch: join the per-volume batch in order.
            pending.setdefault(volume, []).extend(rows)
        else:
            # The ordered route, in one sink call: the caller's next
            # explicit flush commits these, never a threshold.
            self._flush_sink(volume, Bundle.of_rows(rows))
        self.records_flushed += len(rows) // 3

    def sync(self, pnode: int, volume: Optional[str] = None) -> int:
        """``pass_sync``: force an object's provenance to disk."""
        if pnode not in self._cache and pnode not in self._assigned:
            raise UnknownPnode(f"pass_sync: nothing known about pnode {pnode}")
        return self.flush(pnode, volume)

    def discard(self, pnode: int) -> int:
        """Drop cached records of a dead object with no persistent ties."""
        count = len(self._cache.pop(pnode, ())) // 3
        self.records_discarded += count
        return count

    # -- introspection ---------------------------------------------------------

    def cached_records(self, pnode: int) -> list[ProvenanceRecord]:
        """Copy of the records currently cached for an object."""
        return list(records_from(self._cache.get(pnode, ())))
