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
subject version is dropped.  A key is held in one of two stores: the
values of bulk-disclosed runs as plain values, grouped per subject
version and (attribute, exact class), and every other key as one flat
tuple.  A version this analyzer has superseded (or forgotten) is never
the subject of a proto-record again, so the keys it holds for such
versions are dropped once the two stores together have doubled since
the last such sweep -- a dead version's groups in one pop, the flat
keys in one scan: the state is proportional to the live versions, plus
at most one doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Union

from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef
from repro.core.records import (PLAIN_VALUE_TYPES, Attr, ProvenanceRecord,
                                RecordBatch, Value, attr_too_long)

#: Held keys below which dead versions' keys are never swept.
_SWEEP_FLOOR = 1 << 16


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


@dataclass(slots=True)
class ProtoRun:
    """Many records-in-flight about one live subject and one attribute:
    what ``LibPass.record_many`` returns.  It iterates and sizes as its
    :class:`ProtoRecord`s, so ``protos += run`` splices them into a
    list; handed over whole -- to ``pass_write``, or as one item of a
    ``submit_batch`` list -- it is admitted in bulk."""

    subject: object
    attr: str
    values: list

    def __iter__(self):
        return map(ProtoRecord, repeat(self.subject), repeat(self.attr),
                   self.values)

    def __len__(self) -> int:
        return len(self.values)


def proto_count(protos: list) -> int:
    """Records a list of protos stands for: a run counts its values."""
    if ProtoRun in map(type, protos):
        return sum(len(proto.values) if proto.__class__ is ProtoRun else 1
                   for proto in protos)
    return len(protos)


def _run_class(values: list):
    """The one exact class every value of a run has, else None."""
    classes = set(map(type, values))
    return classes.pop() if len(classes) == 1 else None


def _dedup_key(subject: ObjectRef, attr: str, value: Value) -> tuple:
    """A ``_seen`` entry: one tuple of atoms per record, which the
    collector untracks at first look.  The subject version as one int
    (``pnode << 32 | version``: the log frames a version in 32 bits),
    the attribute, then a ``str`` value as itself, a cross-reference as
    its target's pnode and version, any other value after its class
    name (``1 == True == 1.0``); slot three's type and the length keep
    them apart.  A ``str`` key is three slots, 64 bytes."""
    cls = value.__class__
    version = subject.pnode << 32 | subject.version
    if cls is str:
        return (version, attr, value)
    if isinstance(value, ObjectRef):
        return (version, attr, value.pnode, value.version)
    return (version, attr, cls.__name__, value)


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

    def __init__(self, emit: Callable[[ProvenanceRecord], None],
                 emit_batch: Callable[[RecordBatch], None],
                 clock=None, record_cost: float = 0.0):
        self._emit = emit
        self._emit_batch = emit_batch
        self._clock = clock
        self._record_cost = record_cost
        #: While submit_batch runs, admitted records collect here as
        #: flat rows (so freeze-emitted PREV_VERSION rows keep their
        #: position in the batch) instead of going straight to ``emit``.
        self._batch_out: Optional[list] = None
        #: Versions some object depends on: immutable from then on.  A
        #: freeze drops the version it supersedes.
        self._observed: set[ObjectRef] = set()
        #: Dedup keys of the records admitted one at a time about every
        #: version not swept yet (``_dedup_key``): one flat set.
        self._seen: set[tuple] = set()
        #: The keys ``_admit_run`` admitted, as plain values: version ->
        #: {(attr, exact class): values}.  The class keeps ``1``,
        #: ``True`` and ``1.0`` apart; no key is in both stores.
        self._runs: dict[int, dict[tuple, set]] = {}
        #: Values held in ``_runs``.
        self._run_keys = 0
        #: Versions (``pnode << 32 | version``, a key's first slot) this
        #: analyzer superseded or forgot since the last sweep.
        self._dead: set[int] = set()
        #: Held keys at which the next version death sweeps: twice
        #: what the last sweep left (a load factor, not a setting).
        self._sweep_at = _SWEEP_FLOOR
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
        self.dedup_sweeps = 0

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
            "seen_keys": len(self._seen) + self._run_keys,
            "dead_versions_pending": len(self._dead),
            "dedup_sweeps": self.dedup_sweeps,
        }

    # -- object registry ------------------------------------------------------

    def register(self, obj: Freezable) -> None:
        """Make an object freezable / resolvable by pnode."""
        self._registry[obj.pnode] = obj

    def forget(self, pnode: int) -> None:
        """Drop a dead object from the registry.  The keys of its
        current version go at the next sweep; a record about it that
        follows the sweep is admitted afresh.  Its ``_observed`` entry
        stays: an unlinked file still open can be written, and cycle
        avoidance must still see that version observed."""
        obj = self._registry.pop(pnode, None)
        if obj is not None:
            self._bury(pnode << 32 | obj.version)

    def _bury(self, version: int) -> None:
        """Mark ``version`` dead; sweep if the held keys have doubled.

        :meth:`freeze` and :meth:`forget` are the only callers, so both
        admission paths sweep at the same point of a stream."""
        self._dead.add(version)
        if len(self._seen) + self._run_keys >= self._sweep_at:
            seen = self._seen
            dead = self._dead
            runs = self._runs
            seen.difference_update([key for key in seen if key[0] in dead])
            for version in dead:
                groups = runs.pop(version, None)
                if groups is not None:
                    self._run_keys -= sum(map(len, groups.values()))
            dead.clear()
            self._sweep_at = max(_SWEEP_FLOOR,
                                 2 * (len(seen) + self._run_keys))
            self.dedup_sweeps += 1

    # -- record admission -----------------------------------------------------

    def submit(self, proto: Union[ProtoRecord, ProvenanceRecord]) -> None:
        """Admit one record: version-pin, cycle-avoid, dedup, emit.

        A finalized :class:`ProvenanceRecord` (the NFS wire) may name
        any version, also one this analyzer superseded: it is dropped
        as a duplicate while that version's keys are held, and admitted
        again once a sweep has dropped them.  The
        repeat is the identical row ``dedup_enabled = False`` would
        store: no statement is lost or changed, and what the graph
        reaches is the same.  Keeping every key a wire record could
        name would keep every key ever seen.
        """
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
        * duplicate elimination is one ``_seen`` membership test per
          proto on a key built from the subject's ``pnode``/``version``
          (and one group lookup while the subject version holds run
          groups), so a duplicate (block-sized I/O re-submits the same
          few records hundreds of times) is dropped without resolving a
          ref or building anything else; the subject's ref is resolved
          once per run of admitted protos about the same object;
        * a :class:`ProtoRun` whose values share one exact plain class
          is admitted with set operations instead of a loop body per
          value, and its keys are held as those values.  Any other run
          (cross-references, which cycle avoidance must see one by one;
          mixed classes such as ``1``/``True``/``1.0``; subclasses)
          travels as its proto-records;
        * field validation happens here with per-class tests (an
          attribute once per run of one attribute string), and no
          record object is built: admitted records leave as the flat
          rows of one :class:`RecordBatch` through ``emit_batch``
          (freeze-emitted PREV_VERSION rows are spliced into the batch
          at their admission position, so record order is exactly
          :meth:`submit`'s).  A proto that fails validation raises
          :class:`InvalidRecord` after the records admitted before it
          are emitted, as :meth:`submit` per record would leave them.
        """
        if not isinstance(protos, (list, tuple)):
            protos = list(protos)
        plain_types = PLAIN_VALUE_TYPES
        count = len(protos)
        if ProtoRun in map(type, protos):
            # A run bulk admission cannot take travels as proto-records.
            flat: list = []
            for proto in protos:
                if (proto.__class__ is ProtoRun
                        and _run_class(proto.values) not in plain_types):
                    flat += proto
                else:
                    flat.append(proto)
            protos = flat
            count = proto_count(protos)
        self.records_in += count
        if self._clock is not None and self._record_cost:
            self._clock.advance(self._record_cost * count,
                                "provenance_cpu")
        out: list = []
        dropped = 0
        self._batch_out = out
        try:
            seen = self._seen
            runs = self._runs
            dedup = self.dedup_enabled
            ancestry = Attr.ANCESTRY_ATTRS
            observe = self._observed.add
            last_subject = ref = groups = None
            last_attr = Attr.TYPE           # any attribute known valid
            for proto in protos:
                if proto.__class__ is not ProtoRecord:
                    if proto.__class__ is ProtoRun:
                        dropped += self._admit_run(proto, out)
                        # It may have made the version's first group.
                        last_subject = None
                        continue
                    if isinstance(proto, ProvenanceRecord):
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
                        # run cache so the version is read again.
                        last_subject = None
                    is_ref = True
                elif cls not in plain_types and not isinstance(
                        value, (int, float, str, bytes, bool)):
                    raise InvalidRecord(
                        f"unsupported value type: {cls.__name__}")
                else:
                    is_ref = False
                if attr is not last_attr:
                    if not attr or (attr.__class__ is not str
                                    and not isinstance(attr, str)
                                    ) or attr_too_long(attr):
                        raise InvalidRecord(
                            f"attribute must be a non-empty string of at "
                            f"most 255 UTF-8 bytes: {attr!r}")
                    last_attr = attr
                if subject is not last_subject:
                    last_subject = subject
                    version = subject.pnode << 32 | subject.version
                    ref = None
                    groups = runs.get(version) if runs else None
                if cls is str:                  # keys as _dedup_key's
                    key = (version, attr, value)
                elif is_ref:
                    key = (version, attr, value.pnode, value.version)
                else:
                    key = (version, attr, cls.__name__, value)
                if key in seen or groups is not None and value in groups.get(
                        (attr, cls), ()):
                    if dedup:
                        dropped += 1
                        continue
                    key = None          # held: emitted, not stored again
                if ref is None:
                    ref = subject.ref()
                    if not isinstance(ref, ObjectRef):
                        raise InvalidRecord(
                            f"subject must be an ObjectRef: {ref!r}")
                if key is not None:
                    seen.add(key)
                if is_ref and attr in ancestry:
                    observe(value)      # immutable from now on
                out += (ref, attr, value)
        finally:
            # Emitted even on an invalid proto: the prefix is in _seen.
            self._batch_out = None
            self.records_out += len(out) // 3
            self.duplicates_dropped += dropped
            if out:
                self._emit_batch(RecordBatch.of_rows(out))
        return len(out) // 3

    def _admit_run(self, run: ProtoRun, out: list) -> int:
        """Admit a run whose values share one exact plain class onto
        ``out``; returns how many were dropped as duplicates.  The keys
        it adds are its values, in the version's ``(attr, class)``
        group; one held already, flat or grouped, is not added again."""
        ref = run.subject.ref()
        attr = run.attr
        values = run.values
        ProvenanceRecord(ref, attr, values[0])  # subject, attr: validated once
        count = len(values)
        seen = self._seen
        version = ref.pnode << 32 | ref.version
        cls = values[0].__class__
        # The values' flat keys, as zip yields them: one tuple reused.
        slots = ((repeat(version), repeat(attr)) if cls is str else
                 (repeat(version), repeat(attr), repeat(cls.__name__)))
        fresh = set(values)
        groups = self._runs.get(version)
        group = groups.get((attr, cls)) if groups is not None else None
        if (len(fresh) != count
                or group is not None and not group.isdisjoint(fresh)
                or not seen.isdisjoint(zip(*slots, fresh))):
            flat = {key[-1] for key in seen.intersection(zip(*slots, fresh))}
            grouped = () if group is None else group
            fresh = {value for value in fresh
                     if value not in flat and value not in grouped}
            if self.dedup_enabled:
                # First occurrences not held before, in order.
                values = [value for value in dict.fromkeys(values)
                          if value in fresh]
        if fresh:
            self._run_keys += len(fresh)
            if group is None:
                self._runs.setdefault(version, {})[attr, cls] = fresh
            else:
                group |= fresh
        block = [attr] * (3 * len(values))
        block[0::3] = [ref] * len(values)
        block[2::3] = values
        out += block
        return count - len(values)

    def _admit(self, subject_ref: ObjectRef, attr: str, value: Value) -> None:
        record = ProvenanceRecord(subject_ref, attr, value)
        seen = self._seen
        dedup_key = _dedup_key(subject_ref, attr, value)
        groups = self._runs.get(dedup_key[0])
        if dedup_key in seen or groups is not None and value in groups.get(
                (attr, value.__class__), ()):
            if self.dedup_enabled:
                self.duplicates_dropped += 1
                return
        else:
            seen.add(dedup_key)
        if record.is_ancestry:
            # Pin ``value`` as observed: immutable from now on.
            self._observed.add(value)
        batch_out = self._batch_out
        if batch_out is not None:
            # Counted, with the rest of the batch, when it closes.
            batch_out += (subject_ref, attr, value)
        else:
            self.records_out += 1
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

        The new version depends on the old one (the PREV_VERSION edge)
        and its duplicate-elimination state starts fresh.  No
        proto-record is about the old version again: it leaves
        ``_observed`` (cycle avoidance only asks about current versions)
        and its keys are dropped at the next sweep.
        """
        old_ref = subject.ref()
        subject.version += 1
        new_ref = subject.ref()
        self.freezes += 1
        if self.on_freeze is not None:
            self.on_freeze(subject, subject.version)
        self._admit(new_ref, Attr.PREV_VERSION, old_ref)
        self._observed.discard(old_ref)
        self._bury(old_ref.pnode << 32 | old_ref.version)
        return subject.version
