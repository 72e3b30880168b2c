"""The analyzer: duplicate elimination and cycle avoidance (section 5.4).

The analyzer sits between the observer and the distributor.  It receives
*proto-records* -- records whose subject is a live object rather than a
frozen (pnode, version) pair -- finalizes their subject version, drops
duplicates, and guarantees that the resulting provenance graph over
(pnode, version) nodes is acyclic.

Cycle avoidance follows the algorithm of Muniswamy-Reddy & Holland
(FAST '09) that PASSv2 adopted after PASSv1's global cycle *detection*
proved intractable.  The local rule that guarantees acyclicity is
immutability of *observed* versions: the moment any record makes some
object depend on version (p, v), that version's own ancestry is frozen
forever.  When a new dependency must be recorded *from* an object whose
current version has already been observed (or the edge is a self-edge),
the analyzer first freezes the object -- creating a new version that
depends on the old one -- and records the edge against the new version.

Why this is sound: a cycle would need some version to gain an outgoing
edge *after* gaining an incoming one; the observed-version rule makes
exactly that impossible.  It is conservative -- it may create versions a
global analysis would avoid -- but it needs no global state, which is
what lets the same analyzer run unmodified on NFS clients and servers.

Duplicate elimination: programs do I/O in small blocks, so a single
logical read/write produces many identical records; a record whose
(subject, attribute, value) triple was already recorded for the same
subject version is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from collections import OrderedDict

from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord, RecordBatch, Value

#: Plain value classes a record may carry (the batch path validates with
#: one frozenset membership test instead of three isinstance calls).
_PLAIN_VALUE_TYPES = frozenset((int, float, str, bytes, bool))


@dataclass(slots=True)
class ProtoRecord:
    """A record-in-flight whose subject is still a live object.

    ``subject`` is any object with ``pnode``/``version`` attributes and a
    ``ref()`` method (inode, process, pipe, :class:`PassObject`).  The
    analyzer pins the subject version when it admits the record.
    """

    subject: object
    attr: str
    value: Value


#: Object the analyzer can freeze: has pnode, version, ref().
Freezable = object


class Analyzer:
    """Stream processor: proto-records in, finalized records out.

    ``emit`` receives each record admitted one at a time (:meth:`submit`,
    a :meth:`freeze` outside a batch) and ``emit_batch`` each
    :meth:`submit_batch` group as one :class:`RecordBatch`, both in
    admission order; the distributor's ``dispatch`` / ``flush_batch``
    are the normal consumers.  ``on_freeze`` (optional) is told about
    analyzer-initiated freezes so storage layers can version data
    structures.
    """

    #: Capacity of the hot-triple duplicate cache (see submit_batch).
    HOT_TRIPLES = 4096

    def __init__(self, emit: Callable[[ProvenanceRecord], None],
                 emit_batch: Callable[[RecordBatch], None],
                 clock=None, record_cost: float = 0.0):
        self._emit = emit
        self._emit_batch = emit_batch
        self._clock = clock
        self._record_cost = record_cost
        #: While submit_batch runs, admitted records collect here (so
        #: freeze-emitted PREV_VERSION records keep their position in
        #: the batch) instead of going straight to ``emit``.
        self._batch_out: Optional[list] = None
        #: LRU of (pnode, version, attr, value-key) quadruples already
        #: processed: block-sized I/O re-submits the same few triples
        #: hundreds of times, and a hit here classifies the record as a
        #: duplicate without constructing anything.
        self._hot: OrderedDict[tuple, None] = OrderedDict()
        #: Versions some object depends on: immutable from then on.
        self._observed: set[ObjectRef] = set()
        #: (attr, value-key) pairs already recorded, per (pnode, version).
        self._seen: dict[ObjectRef, set[tuple]] = {}
        #: pnode -> live object, so freezes can bump versions.
        self._registry: dict[int, Freezable] = {}
        self.on_freeze: Optional[Callable[[Freezable, int], None]] = None
        #: Ablation switch: disable duplicate elimination (the paper's
        #: motivation for the analyzer -- per-block I/O floods the log).
        self.dedup_enabled = True
        # Statistics.
        self.records_in = 0
        self.records_out = 0
        self.duplicates_dropped = 0
        self.freezes = 0
        self.cycle_breaks = 0

    def bind_obs(self, obs) -> None:
        """Expose this analyzer's totals to the observability layer.

        Registered as a snapshot-time collector so the per-record hot
        path (submit/_admit) carries no instrumentation calls at all.
        """
        obs.add_collector("analyzer", self._obs_counters)

    def _obs_counters(self) -> dict:
        return {
            "records_in": self.records_in,
            "records_out": self.records_out,
            "duplicates_dropped": self.duplicates_dropped,
            "freezes": self.freezes,
            "cycle_breaks": self.cycle_breaks,
            "observed_versions": len(self._observed),
            "registered_objects": len(self._registry),
        }

    # -- object registry ------------------------------------------------------

    def register(self, obj: Freezable) -> None:
        """Make an object freezable / resolvable by pnode."""
        self._registry[obj.pnode] = obj

    def lookup(self, pnode: int) -> Optional[Freezable]:
        """Find the live object for a pnode, if registered."""
        return self._registry.get(pnode)

    def forget(self, pnode: int) -> None:
        """Drop a dead object from the registry; its versions stay in
        ``_observed``/``_seen`` (finalized records may still name them)."""
        self._registry.pop(pnode, None)

    # -- record admission -----------------------------------------------------

    def submit(self, proto: Union[ProtoRecord, ProvenanceRecord]) -> None:
        """Admit one record: version-pin, cycle-avoid, dedup, emit."""
        self.records_in += 1
        if self._clock is not None and self._record_cost:
            self._clock.advance(self._record_cost, "provenance_cpu")

        if isinstance(proto, ProvenanceRecord):
            # Already finalized (e.g. arrived over the NFS wire): dedup
            # and ancestry-track, but do not re-version.
            self._admit(proto.subject, proto.attr, proto.value)
            return

        subject = proto.subject
        value = proto.value
        if isinstance(value, ObjectRef) and proto.attr in Attr.ANCESTRY_ATTRS:
            self._avoid_cycle(subject, value)
        self._admit(subject.ref(), proto.attr, value)

    def submit_many(self, protos) -> None:
        """Admit a sequence of records in order."""
        for proto in protos:
            self.submit(proto)

    def submit_batch(self, protos) -> int:
        """Admit a sequence in one vectorized pass; returns emitted count.

        Admits the same stream as calling :meth:`submit` per item
        (:meth:`submit` is the reference ``tests/unit/test_batch_paths``
        and ``tests/properties/test_analyzer_props`` hold this method
        to: same records, same order, same counters), but the
        per-record constants are amortized:

        * one clock advance for the whole batch;
        * duplicate elimination runs *before* record construction --
          one ``_seen``-set membership test per proto, with subject refs
          resolved once per run of protos about the same object;
        * a capped LRU of hot (subject, attr, value-key) triples
          short-circuits the duplicate storms block-sized I/O produces;
          it is consulted (and fed) only at run boundaries -- inside a
          run the ``_seen`` set is already at hand, so LRU maintenance
          there would be pure overhead;
        * field validation happens here with per-class tests, so records
          are minted inline -- :func:`~repro.core.records.make_record`'s
          idiom with the lookups hoisted out of the loop -- instead of
          through ``__init__``/``__post_init__``;
        * admitted records leave as one :class:`RecordBatch` through
          ``emit_batch`` (freeze-emitted PREV_VERSION records are
          spliced into the batch at their admission position, so record
          order is exactly :meth:`submit`'s).
        """
        if not isinstance(protos, (list, tuple)):
            protos = list(protos)
        count = len(protos)
        self.records_in += count
        if self._clock is not None and self._record_cost:
            self._clock.advance(self._record_cost * count,
                                "provenance_cpu")
        out: list[ProvenanceRecord] = []
        emitted = dropped = 0
        self._batch_out = out
        try:
            seen_map = self._seen
            hot = self._hot
            hot_cap = self.HOT_TRIPLES
            dedup = self.dedup_enabled
            ancestry = Attr.ANCESTRY_ATTRS
            plain_types = _PLAIN_VALUE_TYPES
            out_append = out.append
            observe = self._observed.add
            new_record = object.__new__
            setfield = object.__setattr__
            record_cls = ProvenanceRecord
            last_subject = last_ref = last_seen = None
            for proto in protos:
                if proto.__class__ is not ProtoRecord and isinstance(
                        proto, ProvenanceRecord):
                    # Already finalized (e.g. the NFS wire): admitted
                    # as :meth:`submit` would, collected via _batch_out.
                    self._admit(proto.subject, proto.attr, proto.value)
                    continue
                subject = proto.subject
                attr = proto.attr
                value = proto.value
                cls = value.__class__
                if cls is ObjectRef or isinstance(value, ObjectRef):
                    if attr in ancestry:
                        self._avoid_cycle(subject, value)
                        # A freeze bumps the subject's version; drop the
                        # run cache so the ref is re-resolved.
                        last_subject = None
                    is_ref = True
                    vkey = ("ref", value.pnode, value.version)
                else:
                    if cls not in plain_types and not isinstance(
                            value, (int, float, str, bytes, bool)):
                        raise InvalidRecord(
                            f"unsupported value type: {cls.__name__}")
                    is_ref = False
                    vkey = (cls.__name__, value)
                if not attr or (attr.__class__ is not str
                                and not isinstance(attr, str)):
                    raise InvalidRecord(
                        f"attribute must be a non-empty string: {attr!r}")
                if subject is last_subject:
                    ref = last_ref
                    seen = last_seen
                    hkey = None
                else:
                    if dedup:
                        hkey = (subject.pnode, subject.version, attr, vkey)
                        if hkey in hot:
                            hot.move_to_end(hkey)
                            dropped += 1
                            continue
                    else:
                        hkey = None
                    ref = subject.ref()
                    if not isinstance(ref, ObjectRef):
                        raise InvalidRecord(
                            f"subject must be an ObjectRef: {ref!r}")
                    seen = seen_map.get(ref)
                    if seen is None:
                        seen = set()
                        seen_map[ref] = seen
                    last_subject, last_ref, last_seen = subject, ref, seen
                if hkey is not None:
                    hot[hkey] = None
                    if len(hot) > hot_cap:
                        hot.popitem(last=False)
                dkey = (attr, vkey)
                if dkey in seen:
                    if dedup:
                        dropped += 1
                        continue
                else:
                    seen.add(dkey)
                record = new_record(record_cls)
                setfield(record, "subject", ref)
                setfield(record, "attr", attr)
                setfield(record, "value", value)
                if is_ref and attr in ancestry:
                    observe(value)      # immutable from now on
                emitted += 1
                out_append(record)
        finally:
            self._batch_out = None
            self.records_out += emitted
            self.duplicates_dropped += dropped
        if out:
            self._emit_batch(RecordBatch(out))
        return len(out)

    def _admit(self, subject_ref: ObjectRef, attr: str, value: Value) -> None:
        record = ProvenanceRecord(subject_ref, attr, value)
        seen = self._seen.setdefault(subject_ref, set())
        dedup_key = (attr, record.key()[2])
        if dedup_key in seen:
            if self.dedup_enabled:
                self.duplicates_dropped += 1
                return
        else:
            seen.add(dedup_key)
        if record.is_ancestry:
            # Pin ``value`` as observed: immutable from now on.
            self._observed.add(value)
        self.records_out += 1
        batch_out = self._batch_out
        if batch_out is not None:
            batch_out.append(record)
        else:
            self._emit(record)

    # -- cycle avoidance --------------------------------------------------------

    def _avoid_cycle(self, subject: Freezable, value: ObjectRef) -> None:
        """Freeze ``subject`` if recording ``subject -> value`` could cycle."""
        current = subject.ref()
        if value.pnode == current.pnode:
            # Self-dependency: reading your own output.  A reference to an
            # *older* version of yourself is fine (that is what freezing
            # produces); the current version would be a 1-cycle.
            if value.version >= current.version:
                self.cycle_breaks += 1
                self.freeze(subject)
            return
        # Observed versions are immutable: if anything already depends on
        # the subject's current version, new ancestry starts a new one.
        if current in self._observed:
            self.cycle_breaks += 1
            self.freeze(subject)

    def freeze(self, subject: Freezable) -> int:
        """Create a new version of ``subject``; returns the new version.

        The new version depends on the old one (the PREV_VERSION edge,
        which also pins the old version as observed) and its
        duplicate-elimination state starts fresh.
        """
        old_ref = subject.ref()
        subject.version += 1
        new_ref = subject.ref()
        self.freezes += 1
        self._seen.setdefault(new_ref, set())
        if self.on_freeze is not None:
            self.on_freeze(subject, subject.version)
        self._admit(new_ref, Attr.PREV_VERSION, old_ref)
        return subject.version
