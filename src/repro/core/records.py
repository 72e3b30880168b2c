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
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Iterator, Union

from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef

#: Types a record value may take.  ObjectRef marks a cross-reference.
Value = Union[int, float, str, bytes, bool, ObjectRef]

#: The exact value classes that are not a cross-reference: a batch
#: stage tests a run's classes against this set in one operation
#: instead of one ``isinstance`` per value.
PLAIN_VALUE_TYPES = frozenset((int, float, str, bytes, bool))


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
        if (not self.attr or not isinstance(self.attr, str)
                or attr_too_long(self.attr)):
            raise InvalidRecord("attribute must be a non-empty string of at "
                                f"most 255 UTF-8 bytes: {self.attr!r}")
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


def attr_too_long(attr: str) -> bool:
    """True past the 255 UTF-8 bytes the log's length byte can frame
    (63 characters never are: at most four bytes per character)."""
    return len(attr) > 63 and len(attr.encode("utf-8")) > 255


def make_record(subject: ObjectRef, attr: str, value: Value) -> "ProvenanceRecord":
    """Trusted-path record constructor for internal pipeline stages.

    The ingest pipeline validates subject/attr/value once, where a
    record is admitted (``Analyzer.submit_batch``, with cheap class
    tests), and from there carries it as three slots of a flat rows
    list; a :class:`ProvenanceRecord` is minted from those slots only
    where something reads one, so re-running
    ``__init__``/``__post_init__`` -- three ``isinstance`` checks per
    record -- would only repeat work.  The one mint idiom:
    ``object.__new__``, then ``object.__setattr__`` per slot (the frozen
    class refuses plain assignment).  The returned record is
    indistinguishable from one built normally.  Callers *must* guarantee
    the field invariants ``__post_init__`` enforces; external producers
    go through ``ProvenanceRecord(...)``.
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


def records_from(rows) -> Iterator[ProvenanceRecord]:
    """Mint, lazily and in order, the records a flat rows sequence holds
    (``rows[3*i:3*i+3] == (subject, attr, value)``)."""
    row = iter(rows)
    return map(make_record, row, row, row)


def rows_of(records) -> list:
    """The flat rows of a carrier (its own list, not a copy), or of any
    iterable of records, flattened once."""
    if isinstance(records, _Rows):
        return records.rows
    rows: list = []
    for record in records:
        rows += (record.subject, record.attr, record.value)
    return rows


def subject_runs(rows: list) -> list[int]:
    """Where the runs of records about one subject begin in a flat rows
    list, as row offsets, then ``len(rows)``: each pair of neighbours
    bounds one run (``rows[start:stop]``).  Pipeline batches are runs
    -- the analyzer resolves one ref per run of protos about one object
    -- so a stage that decides per subject decides per run and moves
    the run as one slice."""
    bounds = [0]
    for _, run in groupby(rows[0::3]):
        bounds.append(bounds[-1] + 3 * len(list(run)))
    return bounds


_SLOTS = attrgetter("subject", "attr", "value")


def slots_of(records) -> Iterator:
    """:func:`rows_of` as a stream: a carrier's own rows, or any
    iterable of records flattened as it is read."""
    if isinstance(records, _Rows):
        return iter(records.rows)
    return chain.from_iterable(map(_SLOTS, records))


class _Rows:
    """What the two carriers share: one flat list, three slots per
    record, so a carrier of N records is one collector-visible object,
    not N + 1.  Read the slots three at a time (``row = iter(rows);
    zip(row, row, row)``); iterating, indexing or ``list()`` mints
    :class:`ProvenanceRecord` objects for whoever wants to read one."""

    __slots__ = ("rows",)

    def __init__(self, records: Iterable[ProvenanceRecord] = ()):
        #: The backing list, in admission order, owned by the carrier
        #: (flattened from ``records`` here; handed over by ``of_rows``).
        self.rows: list = []
        self.extend(records)

    @classmethod
    def of_rows(cls, rows: list):
        """Adopt an already flat, already validated rows list (the
        trusted constructor internal pipeline stages use)."""
        carrier = cls.__new__(cls)
        carrier.rows = rows
        return carrier

    def add(self, record: ProvenanceRecord) -> None:
        """Append one record."""
        self.rows += (record.subject, record.attr, record.value)

    def extend(self, records: Iterable[ProvenanceRecord]) -> None:
        """Append many records."""
        self.rows += rows_of(records)

    def subjects(self) -> list[ObjectRef]:
        """Distinct subjects in order (first occurrence wins)."""
        return list(dict.fromkeys(self.rows[0::3]))

    def __iter__(self) -> Iterator[ProvenanceRecord]:
        return records_from(self.rows)

    def __getitem__(self, index: int) -> ProvenanceRecord:
        start = 3 * range(len(self))[index]
        return make_record(*self.rows[start:start + 3])

    def __len__(self) -> int:
        return len(self.rows) // 3

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} records)"


class RecordBatch(_Rows):
    """An ordered batch of finalized records the log may group-commit.

    The carrier the ingest pipeline (analyzer ``submit_batch`` ->
    distributor ``flush_batch`` -> Lasagna ``append_provenance`` -> log
    ``append_batch`` -> Waldo -> ``insert_many`` -> ``apply_batch``)
    hands between layers; a :class:`Bundle` in the same sink means the
    caller orders the flush instead.  Unlike :class:`Bundle` it performs
    no per-item validation: every producer is an internal pipeline stage
    that only ever holds already-validated records, so re-checking each
    one would only repeat work per record.
    """

    __slots__ = ()


class Bundle(_Rows):
    """An ordered collection of records describing possibly many objects.

    "A provenance bundle is an array of object handles and records, each
    potentially describing a different object" (section 5.2).  The bundle
    is what ``pass_write`` carries alongside data so that provenance and
    data move through the system together.  Every item handed to the
    public constructor, ``add`` or ``extend`` is checked.
    """

    __slots__ = ()

    def add(self, record: ProvenanceRecord) -> None:
        """Append one record to the bundle."""
        if not isinstance(record, ProvenanceRecord):
            raise InvalidRecord(f"bundle items must be records: {record!r}")
        super().add(record)

    def extend(self, records: Iterable[ProvenanceRecord]) -> None:
        """Append many records to the bundle."""
        for record in records:
            self.add(record)
