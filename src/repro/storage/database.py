"""The provenance database Waldo maintains.

The paper stores provenance in (Berkeley-DB style) databases with
indexes; the space-overhead evaluation (Table 3) reports the database
size and the database-plus-indexes size separately.  This implementation
keeps the same accounting: every inserted record adds its encoded length
to the main-store size, and the index entries it would need add a
documented per-entry cost to the index size:

* an **attribute index** entry per record (attribute -> subjects);
* a **name index** entry per string NAME (name -> subjects);
* a **cross-reference index** entry per reference value (referenced
  version -> referencing subjects, the reverse edges).

Both sizes are pure functions of the rows, computed from them when read
(and remembered until the next insert).
The database keeps only the rows, grouped by pnode; the in-memory
indexes that answer questions (name lookup, versions, reverse edges)
are the live OEM graph's (:mod:`repro.pql.oem`), fed by
:meth:`ProvenanceDatabase.subscribe_batch`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator

from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, ProvenanceRecord, RecordBatch,
                                make_record, records_from)
from repro.storage import codec

#: Approximate on-disk bytes per index entry (key pointer + record id),
#: matching a B-tree leaf entry of a small key plus an 8-byte locator.
ATTR_INDEX_ENTRY_BYTES = 20
NAME_INDEX_BASE_BYTES = 16          # plus the key string itself
XREF_INDEX_ENTRY_BYTES = 28


def _index_bytes_of(attrs: list, values: list) -> int:
    """Index bytes the rows with these attributes and values cost."""
    name_attr = Attr.NAME
    return (ATTR_INDEX_ENTRY_BYTES * len(attrs)
            + sum(NAME_INDEX_BASE_BYTES + len(value)
                  for attr, value in zip(attrs, values)
                  if attr == name_attr and isinstance(value, str))
            + XREF_INDEX_ENTRY_BYTES * sum(
                isinstance(value, ObjectRef) for value in values))


class ProvenanceDatabase:
    """In-memory record store with honest size accounting."""

    def __init__(self, name: str = "provenance"):
        self.name = name
        #: pnode -> its records, as flat (subject, attr, value) rows.
        self._records: dict[int, list] = defaultdict(list)
        self.record_count = 0
        #: (record_count, main bytes, index bytes) as last computed:
        #: rows are only ever added, so the count dates the sizes.
        self._sized = (0, 0, 0)
        self._batch_listeners: list = []

    # -- writes ------------------------------------------------------------------

    def insert(self, record: ProvenanceRecord) -> None:
        """Add one record (a batch of one)."""
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

        The one pass groups the rows by pnode and notifies subscribers
        once with the whole group.
        """
        if not isinstance(records, RecordBatch):
            records = RecordBatch(records)
        rows = records.rows
        by_pnode = self._records
        # Drained batches arrive as runs of records about one subject
        # (the analyzer resolves refs per run); the pnode list is
        # re-derived only when the subject *instance* changes.
        last_subject = plist = None
        row = iter(rows)
        for subject, attr, value in zip(row, row, row):
            if subject is not last_subject:
                last_subject = subject
                plist = by_pnode[subject.pnode]
            plist += (subject, attr, value)
        self.record_count += len(records)
        # Size accounting is deferred: sizes are pure functions of the
        # rows, so a read computes them instead of this loop paying per
        # record.
        if rows:
            for listener in self._batch_listeners:
                listener(records)
        return len(records)

    # -- reads ---------------------------------------------------------------------

    def _sizes(self) -> tuple:
        """(main bytes, index bytes) of every row, computed from the
        per-pnode groups when first read after an insert, so either
        value is exact whenever it is observed."""
        count, main, index = self._sized
        if count != self.record_count:
            main = index = 0
            for group in self._records.values():
                attrs, values = group[1::3], group[2::3]
                main += sum(map(codec.encoded_size_of, attrs, values))
                index += _index_bytes_of(attrs, values)
            self._sized = (self.record_count, main, index)
        return main, index

    @property
    def main_bytes(self) -> int:
        """Encoded bytes of the main store."""
        return self._sizes()[0]

    @property
    def index_bytes(self) -> int:
        """Bytes the documented index entries of every row cost."""
        return self._sizes()[1]

    def records_of(self, pnode: int) -> list[ProvenanceRecord]:
        """All records for all versions of one object."""
        return list(records_from(self._records.get(pnode, ())))

    def records_of_version(self, ref: ObjectRef) -> list[ProvenanceRecord]:
        """Records describing one specific version."""
        row = iter(self._records.get(ref.pnode, ()))
        return [make_record(subject, attr, value)
                for subject, attr, value in zip(row, row, row)
                if subject.version == ref.version]

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
        """Serialize the whole database (the byte accounting is derived
        state and is recomputed on load)."""
        return self.MAGIC + b"".join(
            codec.RecordEncoder().encode_rows(self.all_rows()))

    @classmethod
    def from_bytes(cls, blob: bytes,
                   name: str = "provenance") -> "ProvenanceDatabase":
        """Rebuild a database from :meth:`to_bytes`."""
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
