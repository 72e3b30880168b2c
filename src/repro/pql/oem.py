"""OEM: the schema-less object graph PQL queries run over.

"The data model in Lore is that of a collection of arbitrary objects,
some holding values and some holding tables of named linkages to other
objects" (section 5.7).  Here:

* one :class:`OEMNode` per (pnode, version) seen in the databases;
* provenance records with plain values become *atoms* (attribute name
  lowercased: ``NAME`` -> ``name``);
* records whose value is a cross-reference become labelled *edges*
  (``INPUT`` -> ``input``); every edge is traversable in both
  directions (the Lorel extension PASSv2 required);
* identity atoms (name, type, argv, env, pid) are shared across all
  versions of an object, so a query for ``F.name = "/pass/x"`` matches
  every version, the way Waldo's name index behaves;
* the reserved root ``Provenance`` exposes one member per object TYPE
  (``Provenance.file``, ``Provenance.process``, ...) plus ``node`` for
  everything.

The graph is *maintainable*: :meth:`OEMGraph.build` constructs it from a
record stream, or from the databases' row streams, in one batch pass,
and :meth:`OEMGraph.apply_batch` splices a record group into an
existing graph -- new nodes, edge wiring,
identity-atom sharing, member classification, and the name index are all
updated in O(delta).  A live query engine applies records as Waldo
drains them instead of rebuilding the world per sync; the two paths are
property-tested equivalent (``tests/properties/test_oem_incremental_props``).

Vocabulary growth (a never-before-seen atom label, edge label, or
member) bumps :attr:`OEMGraph.vocab_epoch`, which the query engine uses
to invalidate cached lint vocabularies and compiled-plan check results.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from itertools import chain
from typing import Iterable, Optional

from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, ProvenanceRecord, RecordBatch,
                                rows_of, slots_of)

#: Attributes whose atoms are shared by every version of an object.
IDENTITY_ATTRS = frozenset({Attr.NAME, Attr.TYPE, Attr.ARGV, Attr.ENV,
                            Attr.PID})

#: The labels of :data:`IDENTITY_ATTRS`.
_IDENTITY_LABELS = frozenset(attr.lower() for attr in IDENTITY_ATTRS)

#: Log-framing attributes that never appear in the graph.
_FRAMING = frozenset({Attr.BEGINTXN, Attr.ENDTXN})


class OEMNode:
    """One object version in the graph."""

    __slots__ = ("ref", "atoms", "edges", "redges")

    def __init__(self, ref: ObjectRef):
        self.ref = ref
        # Plain dicts, not defaultdicts: readers hit these directly
        # during traversal, and a defaultdict would materialize an
        # empty list per missing label probed -- queries would bloat
        # node footprints.  Edge writers create a label's list with its
        # first edge.
        #: atom label -> its values: a tuple while it holds one value,
        #: a list from the second on (the rule ``EqualityIndex`` buckets
        #: follow), so a node whose atoms are single plain values holds
        #: nothing the cycle collector must keep walking.  Written only
        #: through :func:`_add_atom` (inlined in ``OEMGraph.load_rows``).
        self.atoms: dict[str, tuple | list] = {}
        #: edge label -> list of target nodes.
        self.edges: dict[str, list["OEMNode"]] = {}
        #: edge label -> list of source nodes (reverse traversal).
        self.redges: dict[str, list["OEMNode"]] = {}

    def atom(self, label: str) -> list:
        """Values of one atom attribute (possibly empty), always as a
        new list the caller owns (:attr:`atoms` has the stored shape)."""
        return list(self.atoms.get(label, ()))

    def out(self, label: str) -> list["OEMNode"]:
        """Forward edge targets."""
        return self.edges.get(label, [])

    def rin(self, label: str) -> list["OEMNode"]:
        """Reverse edge sources."""
        return self.redges.get(label, [])

    @property
    def type(self) -> Optional[str]:
        values = self.atoms.get("type")
        return values[0] if values else None

    @property
    def name(self) -> Optional[str]:
        values = self.atoms.get("name")
        return values[0] if values else None

    def __repr__(self) -> str:
        label = self.name or self.type or "?"
        return f"<OEMNode {self.ref} {label}>"


def _add_atom(atoms: dict, label: str, value) -> None:
    """Append one value to one atom of a node's :attr:`OEMNode.atoms`."""
    values = atoms.get(label)
    if values is None:
        atoms[label] = (value,)
    elif values.__class__ is tuple:
        atoms[label] = [values[0], value]
    else:
        values.append(value)


def bucket_add(buckets: dict, key, node: OEMNode) -> None:
    """File ``node`` under ``key`` in a node-or-list index: the bucket
    is the node itself while it is the only one, a list from the second
    on (``EqualityIndex`` and the graph's name/version indexes)."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = node
    elif bucket.__class__ is list:
        bucket.append(node)
    else:
        buckets[key] = [bucket, node]


def bucket_nodes(bucket) -> list:
    """The nodes of one node-or-list bucket, as a list the caller owns."""
    if bucket.__class__ is list:
        return bucket[:]
    return [] if bucket is None else [bucket]


class OEMGraph:
    """The whole graph plus the Provenance root."""

    ROOT = "Provenance"

    def __init__(self) -> None:
        self._nodes: dict[ObjectRef, OEMNode] = {}
        self._members: dict[str, list[OEMNode]] = defaultdict(list)
        #: Node-or-list buckets: pnode -> versions, NAME -> nodes.
        self._by_pnode: dict[int, OEMNode | list[OEMNode]] = {}
        self._by_name: dict[str, OEMNode | list[OEMNode]] = {}
        #: Every atom / edge label the graph holds (lint vocabulary).
        self._atom_labels: set[str] = set()
        self._edge_labels: set[str] = set()
        #: Bumped whenever the label/member vocabulary grows; cached
        #: vocabularies and plan checks key off it.
        self.vocab_epoch = 0
        self.records_applied = 0
        #: Attribute -> its label, lowered once per graph so every
        #: node's dicts share one key string per label.
        self._labels: dict[str, str] = {}
        #: Attachment point for the secondary-index catalogue
        #: (:class:`repro.pql.indexes.IndexCatalog`).  None until an
        #: optimizing query engine attaches one; afterwards every
        #: atom/edge delta is mirrored into it in O(1) so the indexes
        #: never go stale.  One catalog per graph, shared by every
        #: engine over it.
        self.indexes = None

    # -- construction --------------------------------------------------------------

    @classmethod
    def build(cls, records: Iterable[ProvenanceRecord] = (),
              streams: Iterable[Iterable] = ()) -> "OEMGraph":
        """Build a graph in one batch pass (:meth:`load_rows` on an
        empty graph) from a :class:`~repro.core.records.RecordBatch`
        (read as rows, no record minted) or any stream of ``records``,
        then from each of ``streams``: flat slot streams such as the
        databases' ``all_rows()``, read as they stream."""
        graph = cls()
        graph.load_rows(slots_of(records), *streams)
        return graph

    def load_rows(self, *streams: Iterable) -> int:
        """Splice flat slot streams, three slots per record (subject,
        attr, value), into the graph in one batch pass; returns how many
        records were applied.

        The pass memoises runs: the subject's node is resolved once per
        run of rows about one subject *instance* (a database yields each
        object's rows together, with one ref per run as the analyzer
        resolved it), and the label, framing test and identity test once
        per run of one attribute string.  Identity-atom sharing and
        member classification are deferred to the end of the streams
        (cheaper than doing them per record).  The graph may already
        hold nodes -- a new version still inherits the identity atoms
        its siblings hold -- and the result is indistinguishable from
        :meth:`apply_batch` over the same records.  A graph with an
        index catalog attached takes that path instead, so the catalog
        sees every delta.
        """
        if self.indexes is not None:
            rows = list(chain.from_iterable(streams))
            return self.apply_batch(RecordBatch.of_rows(rows))
        # Everything allocated here stays alive in the graph, so the
        # cyclic collector is paused for the pass: left on, it re-scans
        # the growing heap hundreds of times, once in full, for nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            nodes = self._nodes
            live_node = self._live_node
            labels = self._labels
            atom_labels = self._atom_labels
            edge_labels = self._edge_labels
            #: pnode -> its identity atoms, arrival-ordered (label, value).
            identity: dict[int, list] = defaultdict(list)
            count = 0
            # The run memo: the last subject instance with its node's
            # dicts, and the last attribute string with what it decides
            # (``noted``: its label is in the atom vocabulary already).
            subject = attr = label = atoms = edges = node = None
            framing = shared = noted = False
            for stream in streams:
                row = iter(stream)
                for ref, name, value in zip(row, row, row):
                    if name is not attr:
                        attr = name
                        framing = name in _FRAMING
                        if not framing:
                            label = (labels.get(name)
                                     or labels.setdefault(name, name.lower()))
                            shared = name in IDENTITY_ATTRS
                            noted = False
                    if framing:
                        continue
                    count += 1
                    if ref is not subject:
                        subject = ref
                        node = live_node(ref)
                        atoms = node.atoms
                        edges = node.edges
                    if isinstance(value, ObjectRef):
                        target = nodes.get(value) or live_node(value)
                        targets = edges.get(label)
                        if targets is None:
                            edges[label] = [target]
                        else:
                            targets.append(target)
                        sources = target.redges.get(label)
                        if sources is None:
                            target.redges[label] = [node]
                        else:
                            sources.append(node)
                        edge_labels.add(label)
                        continue
                    if shared:
                        identity[ref.pnode].append((label, value))
                    else:
                        # _add_atom, inline.
                        values = atoms.get(label)
                        if values is None:
                            atoms[label] = (value,)
                        elif values.__class__ is tuple:
                            atoms[label] = [values[0], value]
                        else:
                            values.append(value)
                    if not noted:
                        atom_labels.add(label)
                        noted = True
            self.records_applied += count
            self._apply_identity(identity)
            self._classify()
        finally:
            if collecting:
                gc.enable()
        self.vocab_epoch += 1
        return count

    def apply(self, record: ProvenanceRecord) -> None:
        """Splice one record into the graph (a batch of one)."""
        self.apply_batch((record,))

    def apply_batch(self, records: Iterable[ProvenanceRecord]) -> int:
        """Splice a record group into the graph (the incremental delta
        path); returns how many records were applied.

        Applying a record stream through here yields a graph equivalent
        to :meth:`build` on the same stream: nodes, atoms, edges, member
        classification, identity sharing, and the name index are all
        maintained eagerly.  Used by live query engines as Waldo drains
        records into the database.  Vocabulary bookkeeping is deferred:
        however many new labels or members the batch introduces, the
        epoch advances once at the end (cached vocabularies only test
        the epoch for change, so one bump per batch invalidates them
        just as well).
        """
        epoch0 = self.vocab_epoch
        count = 0
        live_node = self._live_node
        edge_labels = self._edge_labels
        by_pnode = self._by_pnode
        add_identity = self._add_identity_atom
        note_label = self._note_atom_label
        catalog = self.indexes
        labels = self._labels
        row = iter(rows_of(records))
        for subject, attr, value in zip(row, row, row):
            if attr in _FRAMING:
                continue
            count += 1
            node = live_node(subject)
            label = labels.get(attr) or labels.setdefault(attr, attr.lower())
            if isinstance(value, ObjectRef):
                target = live_node(value)
                node.edges.setdefault(label, []).append(target)
                target.redges.setdefault(label, []).append(node)
                if label not in edge_labels:
                    edge_labels.add(label)
                    self.vocab_epoch += 1
                if catalog is not None:
                    catalog.note_edge(label, node, target)
            elif attr in IDENTITY_ATTRS:
                # Shared by every version, present and future (a new
                # version copies it from a sibling: see _live_node).
                note_label(label)
                for version in bucket_nodes(by_pnode[subject.pnode]):
                    add_identity(version, label, value)
            else:
                _add_atom(node.atoms, label, value)
                note_label(label)
                if catalog is not None:
                    catalog.note_atom(node, label, value)
        self.records_applied += count
        if self.vocab_epoch != epoch0:
            # Deferred bookkeeping: the whole batch costs one bump.
            self.vocab_epoch = epoch0 + 1
        return count

    def _node(self, ref: ObjectRef) -> OEMNode:
        node = self._nodes.get(ref)
        if node is None:
            node = OEMNode(ref)
            self._nodes[ref] = node
            bucket_add(self._by_pnode, ref.pnode, node)
        return node

    def _live_node(self, ref: ObjectRef) -> OEMNode:
        """Get-or-create with eager classification (the apply path):
        a new node joins ``Provenance.node`` immediately and inherits
        every identity atom already seen for its pnode, copied from a
        sibling version: each version holds them all, in arrival order."""
        node = self._nodes.get(ref)
        if node is not None:
            return node
        sibling = self._by_pnode.get(ref.pnode)
        if sibling.__class__ is list:
            sibling = sibling[0]
        node = self._node(ref)
        self._members["node"].append(node)
        for label, values in sibling.atoms.items() if sibling else ():
            if label in _IDENTITY_LABELS:
                for value in values:
                    self._add_identity_atom(node, label, value)
        return node

    def _add_identity_atom(self, node: OEMNode, label: str, value) -> None:
        """Share one identity atom onto one version node, maintaining
        the member classification, name index, and (when attached) the
        secondary-index catalogue it feeds."""
        values = node.atoms.get(label, ())
        if value in values:
            return
        _add_atom(node.atoms, label, value)
        if label == "type" and not values \
                and isinstance(value, str) and value:
            member = value.lower()
            if member not in self._members:
                self.vocab_epoch += 1
            self._members[member].append(node)
        elif label == "name" and isinstance(value, str):
            bucket_add(self._by_name, value, node)
        if self.indexes is not None:
            self.indexes.note_atom(node, label, value)

    def _note_atom_label(self, label: str) -> None:
        if label not in self._atom_labels:
            self._atom_labels.add(label)
            self.vocab_epoch += 1

    def _apply_identity(self, identity) -> None:
        """Share identity atoms across every version of each object."""
        for pnode, pairs in identity.items():
            for node in bucket_nodes(self._by_pnode[pnode]):
                atoms = node.atoms
                for label, value in pairs:
                    if value not in atoms.get(label, ()):
                        _add_atom(atoms, label, value)

    def _classify(self) -> None:
        """Populate the Provenance root members from TYPE atoms, and the
        name index the evaluator's selection pushdown uses."""
        self._members.clear()
        self._by_name.clear()
        for node in self._nodes.values():
            self._members["node"].append(node)
            node_type = node.type
            if isinstance(node_type, str) and node_type:
                self._members[node_type.lower()].append(node)
            for name in node.atoms.get("name", ()):
                if isinstance(name, str):
                    bucket_add(self._by_name, name, node)

    # -- lookups -----------------------------------------------------------------------

    def members(self, name: str) -> list[OEMNode]:
        """Nodes under one Provenance root member (e.g. 'file')."""
        return list(self._members.get(name, ()))

    def member_count(self, name: str) -> int:
        """Size of one root member class without copying it (the
        planner's scan-cost estimate)."""
        return len(self._members.get(name, ()))

    def member_names(self) -> list[str]:
        """Available root member names."""
        return sorted(self._members)

    def atom_labels(self) -> frozenset:
        """Every atom label present in the graph (lint vocabulary)."""
        return frozenset(self._atom_labels)

    def edge_labels(self) -> frozenset:
        """Every edge label present in the graph (lint vocabulary)."""
        return frozenset(self._edge_labels)

    def node(self, ref: ObjectRef) -> Optional[OEMNode]:
        """Node for one (pnode, version), if present."""
        return self._nodes.get(ref)

    def named(self, name: str) -> list[OEMNode]:
        """Nodes whose NAME equals ``name`` (the name index)."""
        return bucket_nodes(self._by_name.get(name))

    def attr_names(self) -> dict[str, str]:
        """Atom/edge label -> the record attribute it was lowered from."""
        return {label: attr for attr, label in self._labels.items()}

    def versions_of(self, pnode: int) -> list[OEMNode]:
        """All version nodes of one object, oldest first."""
        return sorted(bucket_nodes(self._by_pnode.get(pnode)),
                      key=lambda node: node.ref.version)

    def nodes(self) -> list[OEMNode]:
        """Every node."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"<OEMGraph {len(self._nodes)} nodes>"
