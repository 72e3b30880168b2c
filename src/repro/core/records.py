"""Provenance records, attributes, and bundles.

A provenance record is "a structure containing a single unit of
provenance: an attribute/value pair, where the attribute is an identifier
and the value might be a plain value (integer, string, etc.) or a
cross-reference to another object" (paper section 5.2).

Each record here additionally carries its *subject* -- the (pnode, version)
the attribute describes -- because records travel in bundles that may
describe many different objects at once (several processes and pipes in a
shell pipeline, for example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef

#: Types a record value may take.  ObjectRef marks a cross-reference.
Value = Union[int, float, str, bytes, bool, ObjectRef]


class Attr:
    """Well-known provenance attribute names.

    The core system and each provenance-aware application contribute
    attributes; Table 1 of the paper lists the application-specific ones.
    Attributes whose conventional value is a cross-reference are listed in
    :data:`Attr.XREF_ATTRS`.
    """

    # -- core (observer-generated) -------------------------------------
    TYPE = "TYPE"                  # object kind: FILE, PROCESS, PIPE, ...
    NAME = "NAME"                  # human name: path, program, operator
    INPUT = "INPUT"                # ancestry edge: subject depends on value
    ARGV = "ARGV"                  # process arguments
    ENV = "ENV"                    # process environment
    PREV_VERSION = "PREV_VERSION"  # link from version N to version N-1
    FORKPARENT = "FORKPARENT"      # child process -> parent process
    EXEC = "EXEC"                  # process -> binary it executed
    PID = "PID"                    # process id (informational)
    KERNEL = "KERNEL"              # kernel module / version string

    # -- Lasagna / PA-NFS transaction framing (Table 1, PA-NFS rows) ----
    BEGINTXN = "BEGINTXN"          # beginning record of a transaction
    ENDTXN = "ENDTXN"              # terminating record of a transaction
    FREEZE = "FREEZE"              # freeze record sent in pass_write

    # -- PA-Kepler (Table 1) --------------------------------------------
    PARAMS = "PARAMS"              # operator parameters

    # -- PA-links (Table 1) ----------------------------------------------
    VISITED_URL = "VISITED_URL"    # session visited a URL
    FILE_URL = "FILE_URL"          # URL a downloaded file came from
    CURRENT_URL = "CURRENT_URL"    # page being viewed at download time

    # -- PA-NFS bookkeeping ----------------------------------------------
    BRANCH_OF = "BRANCH_OF"        # close-to-open version branch marker

    # -- misc -------------------------------------------------------------
    MD5 = "MD5"                    # data checksum recorded at write time
    ANNOTATION = "ANNOTATION"      # free-form user annotation
    TIME = "TIME"                  # simulated time an object/version began

    #: Attributes whose value is conventionally an ObjectRef.
    XREF_ATTRS = frozenset(
        {INPUT, PREV_VERSION, FORKPARENT, EXEC, BRANCH_OF}
    )

    #: Attributes that express ancestry (edges followed by "input" queries).
    ANCESTRY_ATTRS = frozenset({INPUT, PREV_VERSION, FORKPARENT, EXEC})


class ObjType:
    """Conventional values of the TYPE attribute."""

    FILE = "FILE"
    DIR = "DIR"
    PROCESS = "PROCESS"
    PIPE = "PIPE"
    NP_FILE = "NP_FILE"        # file on a non-PASS volume
    OPERATOR = "OPERATOR"      # PA-Kepler workflow operator
    SESSION = "SESSION"        # PA-links browser session
    FUNCTION = "FUNCTION"      # PA-Python wrapped callable
    INVOCATION = "INVOCATION"  # PA-Python one call of a function
    PYOBJECT = "PYOBJECT"      # PA-Python wrapped data object
    DATASET = "DATASET"        # logical grouping of files


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    """One unit of provenance: ``subject.attr = value``.

    ``subject`` is the (pnode, version) of the object the record
    describes.  ``value`` is a plain value or a cross-reference
    (:class:`ObjectRef`) to another object, typically an ancestor.

    Three slots and no instance dict: a stored record is one object to
    the allocator and to the cycle collector, not two.
    """

    subject: ObjectRef
    attr: str
    value: Value

    def __post_init__(self) -> None:
        if not isinstance(self.subject, ObjectRef):
            raise InvalidRecord(f"subject must be an ObjectRef: {self.subject!r}")
        if not self.attr or not isinstance(self.attr, str):
            raise InvalidRecord(f"attribute must be a non-empty string: {self.attr!r}")
        if not isinstance(self.value, (int, float, str, bytes, bool, ObjectRef)):
            raise InvalidRecord(f"unsupported value type: {type(self.value).__name__}")

    @property
    def is_xref(self) -> bool:
        """True when the value cross-references another object."""
        return isinstance(self.value, ObjectRef)

    @property
    def is_ancestry(self) -> bool:
        """True when the record expresses an ancestry (dependency) edge."""
        return self.attr in Attr.ANCESTRY_ATTRS and self.is_xref

    def key(self) -> tuple:
        """Canonical identity used for duplicate elimination."""
        return (self.subject, self.attr, _value_key(self.value))

    def __str__(self) -> str:
        return f"{self.subject} {self.attr}={self.value!r}"


def make_record(subject: ObjectRef, attr: str, value: Value) -> "ProvenanceRecord":
    """Trusted-path record constructor for internal pipeline stages.

    The batch analyzer validates subject/attr/value itself (once per
    run of protos, with cheap class tests) before minting records, so
    re-running ``__init__``/``__post_init__`` -- three ``isinstance``
    checks per record -- would only repeat work.  The one mint idiom,
    here and inline in ``Analyzer.submit_batch``: ``object.__new__``,
    then ``object.__setattr__`` per slot (the frozen class refuses
    plain assignment).  The returned record is indistinguishable from
    one built normally.  Callers *must* guarantee the field invariants
    ``__post_init__`` enforces; external producers go through
    ``ProvenanceRecord(...)``.
    """
    record = object.__new__(ProvenanceRecord)
    setfield = object.__setattr__
    setfield(record, "subject", subject)
    setfield(record, "attr", attr)
    setfield(record, "value", value)
    return record


def _value_key(value: Value) -> tuple:
    """Return a hashable, type-disambiguated key for a record value.

    Needed because ``1 == True`` and ``ObjectRef`` is itself a tuple; a
    plain value would collide across types in a set.
    """
    if isinstance(value, ObjectRef):
        return ("ref", value.pnode, value.version)
    return (type(value).__name__, value)


class RecordBatch:
    """An ordered batch of finalized records the log may group-commit.

    The carrier the ingest pipeline (analyzer ``submit_batch`` ->
    distributor ``flush_batch`` -> Lasagna ``append_provenance`` -> log
    ``append_batch``) hands between layers; a :class:`Bundle` in the
    same sink means the caller orders the flush instead.  Unlike
    :class:`Bundle` it performs no per-item validation: every producer
    is an internal pipeline stage that only ever holds
    already-validated :class:`ProvenanceRecord` instances, so
    re-checking each one would only repeat work per record.
    It iterates and sizes like a Bundle, so sinks accept either.
    """

    __slots__ = ("records",)

    def __init__(self, records: Optional[list] = None):
        #: The backing list, in admission order.  Owned by the batch:
        #: producers hand the list over rather than copying it.
        self.records: list[ProvenanceRecord] = (
            records if records is not None else [])

    def add(self, record: ProvenanceRecord) -> None:
        """Append one record."""
        self.records.append(record)

    def extend(self, records: Iterable[ProvenanceRecord]) -> None:
        """Append many records."""
        self.records.extend(records)

    def subjects(self) -> list[ObjectRef]:
        """Distinct subjects in batch order (first occurrence wins)."""
        seen: dict[ObjectRef, None] = {}
        for record in self.records:
            seen.setdefault(record.subject, None)
        return list(seen)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __repr__(self) -> str:
        return f"RecordBatch({len(self.records)} records)"


class Bundle:
    """An ordered collection of records describing possibly many objects.

    "A provenance bundle is an array of object handles and records, each
    potentially describing a different object" (section 5.2).  The bundle
    is what ``pass_write`` carries alongside data so that provenance and
    data move through the system together.
    """

    def __init__(self, records: Iterable[ProvenanceRecord] = ()):
        self._records: list[ProvenanceRecord] = list(records)
        for record in self._records:
            if not isinstance(record, ProvenanceRecord):
                raise InvalidRecord(f"bundle items must be records: {record!r}")

    def add(self, record: ProvenanceRecord) -> None:
        """Append one record to the bundle."""
        if not isinstance(record, ProvenanceRecord):
            raise InvalidRecord(f"bundle items must be records: {record!r}")
        self._records.append(record)

    def extend(self, records: Iterable[ProvenanceRecord]) -> None:
        """Append many records to the bundle."""
        for record in records:
            self.add(record)

    def subjects(self) -> list[ObjectRef]:
        """Distinct subjects in bundle order (first occurrence wins)."""
        seen: dict[ObjectRef, None] = {}
        for record in self._records:
            seen.setdefault(record.subject, None)
        return list(seen)

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def __repr__(self) -> str:
        return f"Bundle({len(self._records)} records)"
