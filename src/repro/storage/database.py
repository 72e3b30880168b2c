"""The indexed provenance database Waldo maintains.

The paper stores provenance in (Berkeley-DB style) databases with
indexes; the space-overhead evaluation (Table 3) reports the database
size and the database-plus-indexes size separately.  This implementation
keeps the same accounting: every inserted record adds its encoded length
to the main-store size, and every index entry adds a documented
per-entry cost to the index size.

Indexes maintained (mirroring what the PQL evaluator needs):

* **name index**      -- NAME value -> subject refs (file name lookup);
* **cross-reference index** -- referenced object -> (subject, attr)
  pairs, i.e. the reverse edges used by descendant traversals.

Table 3 also prices an attribute index (attribute -> subjects) per
record in ``index_bytes``; it is not kept: ``subjects_with_attr`` scans.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator, Optional

from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, ProvenanceRecord, RecordBatch,
                                make_record, records_from)
from repro.storage import codec

#: Approximate on-disk bytes per index entry (key pointer + record id),
#: matching a B-tree leaf entry of a small key plus an 8-byte locator.
ATTR_INDEX_ENTRY_BYTES = 20
NAME_INDEX_BASE_BYTES = 16          # plus the key string itself
XREF_INDEX_ENTRY_BYTES = 28


class ProvenanceDatabase:
    """In-memory indexed record store with honest size accounting."""

    def __init__(self, name: str = "provenance"):
        self.name = name
        #: pnode -> its records, as flat (subject, attr, value) rows.
        self._records: dict[int, list] = defaultdict(list)
        self._by_name: dict[str, list[ObjectRef]] = defaultdict(list)
        #: referenced version -> flat ``subject, attr, subject, attr,
        #: ...`` pairs: no tuple per reverse edge for the collector.
        self._by_xref: dict[ObjectRef, list] = defaultdict(list)
        self._max_version: dict[int, int] = {}
        self.record_count = 0
        self._main_bytes = 0
        #: Rows inserted by bulk drains whose encoded size has not
        #: been folded into ``_main_bytes`` yet (see ``main_bytes``).
        self._unsized: list = []
        self.index_bytes = 0
        self._batch_listeners: list = []

    # -- writes ------------------------------------------------------------------

    def insert(self, record: ProvenanceRecord) -> None:
        """Add one record and maintain every index (a batch of one)."""
        self.insert_many((record,))

    def subscribe_batch(self, listener) -> None:
        """Register a callable invoked with each inserted record *group*.

        This is the push feed live query engines ride: the graph
        *receives* records as Waldo ingests them, it never reaches back
        into storage to pull (lint rule PL210).  ``insert_many`` hands
        the whole group over as one :class:`RecordBatch` (a single
        ``insert`` is a batch of one), so a subscriber sees every record
        exactly once, in insertion order.  Recovery replay goes through
        :meth:`insert_many` too, so subscribers stay correct across
        crash/recover cycles.
        """
        self._batch_listeners.append(listener)

    def insert_many(self, records: Iterable[ProvenanceRecord]) -> int:
        """Insert a :class:`RecordBatch`, or any iterable of records
        (flattened once); returns how many records were added.

        The one indexing pass: every instance lookup hoisted, the size
        counters accumulated locally, subscribers notified once with
        the whole group.
        """
        if not isinstance(records, RecordBatch):
            records = RecordBatch(records)
        rows = records.rows
        by_pnode = self._records
        by_name = self._by_name
        by_xref = self._by_xref
        max_version = self._max_version
        name_attr = Attr.NAME
        index_bytes = ATTR_INDEX_ENTRY_BYTES * len(records)
        # Drained batches arrive as runs of records about one subject
        # (the analyzer resolves refs per run); the pnode list and the
        # version high-water check are re-derived only when the subject
        # *instance* changes -- a same-pnode version change always comes
        # as a different ObjectRef instance.
        last_subject = None
        plist: Optional[list] = None
        row = iter(rows)
        for subject, attr, value in zip(row, row, row):
            if subject is not last_subject:
                last_subject = subject
                pnode = subject.pnode
                plist = by_pnode[pnode]
                if subject.version > max_version.get(pnode, -1):
                    max_version[pnode] = subject.version
            plist += (subject, attr, value)
            if attr == name_attr and isinstance(value, str):
                by_name[value].append(subject)
                index_bytes += NAME_INDEX_BASE_BYTES + len(value)
            if isinstance(value, ObjectRef):
                by_xref[value] += (subject, attr)
                index_bytes += XREF_INDEX_ENTRY_BYTES
        self.record_count += len(records)
        # Main-store size accounting is deferred: sizes are pure
        # functions of the rows, so the ``main_bytes`` read folds
        # them in later instead of this loop paying per record.
        self._unsized += rows
        self.index_bytes += index_bytes
        if rows:
            for listener in self._batch_listeners:
                listener(records)
        return len(records)

    # -- reads ---------------------------------------------------------------------

    @property
    def main_bytes(self) -> int:
        """Encoded bytes of the main store.

        Bulk drains defer per-record size accounting (the hot path adds
        nothing); the first read folds the deferred records in, so the
        value is always exact when observed.
        """
        pending = self._unsized
        if pending:
            self._main_bytes += sum(map(codec.encoded_size_of,
                                        pending[1::3], pending[2::3]))
            self._unsized = []
        return self._main_bytes

    def pnodes(self) -> list[int]:
        """Every pnode with at least one record."""
        return list(self._records)

    def records_of(self, pnode: int) -> list[ProvenanceRecord]:
        """All records for all versions of one object."""
        return list(records_from(self._records.get(pnode, ())))

    def records_of_version(self, ref: ObjectRef) -> list[ProvenanceRecord]:
        """Records describing one specific version."""
        row = iter(self._records.get(ref.pnode, ()))
        return [make_record(subject, attr, value)
                for subject, attr, value in zip(row, row, row)
                if subject.version == ref.version]

    def max_version(self, pnode: int) -> Optional[int]:
        """Latest version number seen for an object, or None."""
        return self._max_version.get(pnode)

    def attribute_values(self, ref: ObjectRef, attr: str) -> list:
        """Values of one attribute on one version (possibly several)."""
        row = iter(self._records.get(ref.pnode, ()))
        return [value for subject, name, value in zip(row, row, row)
                if subject.version == ref.version and name == attr]

    def subjects_with_attr(self, attr: str) -> list[ObjectRef]:
        """Subject refs carrying an attribute, one per record, a scan
        grouped by object as :meth:`all_rows` is (first-insertion order)."""
        row = iter(self.all_rows())
        return [subject for subject, name, _ in zip(row, row, row)
                if name == attr]

    def find_by_name(self, name: str) -> list[ObjectRef]:
        """Subject refs whose NAME equals ``name`` (name index)."""
        return list(self._by_name.get(name, ()))

    def ancestors(self, ref: ObjectRef,
                  attrs: frozenset = Attr.ANCESTRY_ATTRS) -> list[ObjectRef]:
        """Direct ancestors of one version (forward edges)."""
        return [record.value for record in self.records_of_version(ref)
                if record.attr in attrs and isinstance(record.value, ObjectRef)]

    def descendants(self, ref: ObjectRef,
                    attrs: frozenset = Attr.ANCESTRY_ATTRS
                    ) -> list[ObjectRef]:
        """Direct descendants of one version (cross-reference index)."""
        pair = iter(self._by_xref.get(ref, ()))
        return [subject for subject, attr in zip(pair, pair)
                if attr in attrs]

    def referencing(self, ref: ObjectRef) -> list[tuple[ObjectRef, str]]:
        """Every (subject, attr) pair whose value references ``ref``."""
        pair = iter(self._by_xref.get(ref, ()))
        return list(zip(pair, pair))

    def all_records(self) -> Iterator[ProvenanceRecord]:
        """Stream every record, grouped by pnode, each in insertion
        order (minted as read)."""
        return records_from(self.all_rows())

    def all_rows(self) -> Iterator:
        """:meth:`all_records` as a stream of flat (subject, attr,
        value) slots: what graph construction reads, mint-free."""
        return chain.from_iterable(self._records.values())

    # -- serialization -------------------------------------------------------------------

    #: File magic for exported databases.
    MAGIC = b"PASSDB1\n"

    def to_bytes(self) -> bytes:
        """Serialize the whole database (indexes are derived state and
        are rebuilt on load)."""
        return self.MAGIC + b"".join(
            codec.RecordEncoder().encode_rows(self.all_rows()))

    @classmethod
    def from_bytes(cls, blob: bytes,
                   name: str = "provenance") -> "ProvenanceDatabase":
        """Rebuild a database (and all indexes) from :meth:`to_bytes`."""
        if not blob.startswith(cls.MAGIC):
            from repro.core.errors import LogCorruption
            raise LogCorruption("not a PASS provenance database export")
        database = cls(name)
        payload = blob[len(cls.MAGIC):]
        count = database.insert_many(codec.decode_stream(payload))
        if database.main_bytes != len(payload):
            from repro.core.errors import LogCorruption
            raise LogCorruption(
                f"database export truncated after {count} records")
        return database

    def save(self, path: str) -> int:
        """Write the export to a host file; returns bytes written."""
        blob = self.to_bytes()
        with open(path, "wb") as handle:
            handle.write(blob)
        return len(blob)

    @classmethod
    def load(cls, path: str,
             name: str = "provenance") -> "ProvenanceDatabase":
        """Read an export from a host file."""
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read(), name)

    # -- space accounting (Table 3) -----------------------------------------------------

    def sizes(self) -> dict[str, int]:
        """Byte sizes: main store, indexes, and their sum."""
        return {
            "database": self.main_bytes,
            "indexes": self.index_bytes,
            "total": self.main_bytes + self.index_bytes,
        }

    def __len__(self) -> int:
        return self.record_count

    def __repr__(self) -> str:
        return (f"<ProvenanceDatabase {self.name}: {self.record_count} "
                f"records, {self.main_bytes + self.index_bytes} bytes>")
