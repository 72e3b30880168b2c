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

The graph is *maintainable*: one run-memoised loop
(``OEMGraph._splice``) splices flat record rows into it.
:meth:`OEMGraph.build` runs that loop once on an empty graph, and a live
query engine runs it on each record group Waldo drains
(:meth:`OEMGraph.apply_batch`), so new nodes, edge wiring,
identity-atom sharing, member classification, the name index and an
attached index catalog are all updated in O(delta) instead of
rebuilding the world per sync.  Splitting a stream into consecutive
splices gives the graph one build over the whole stream gives
(property-tested in ``tests/properties/test_oem_incremental_props``).

Vocabulary growth (a never-before-seen atom label, edge label, or
member) bumps :attr:`OEMGraph.vocab_epoch` once per splice; the query
engine uses it to invalidate cached lint vocabularies and
compiled-plan check results.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from typing import Iterable, Optional

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord, slots_of

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
        #: through :func:`_add_atom` (inlined in ``OEMGraph._splice``).
        self.atoms: dict[str, tuple | list] = {}
        #: edge label -> list of target nodes.
        self.edges: dict[str, list["OEMNode"]] = {}
        #: edge label -> list of source nodes (reverse traversal).
        self.redges: dict[str, list["OEMNode"]] = {}

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
        """Build a graph in one splice (:meth:`_splice` on an empty
        graph) from a :class:`~repro.core.records.RecordBatch` (read as
        rows, no record minted) or any stream of ``records``, then from
        each of ``streams``: flat slot streams such as the databases'
        ``all_rows()``, read as they stream."""
        graph = cls()
        graph._splice(slots_of(records), *streams)
        return graph

    def apply(self, record: ProvenanceRecord) -> None:
        """Splice one record into the graph (a splice of one)."""
        self._splice(slots_of((record,)))

    def apply_batch(self, records: Iterable[ProvenanceRecord]) -> int:
        """Splice a record group -- a
        :class:`~repro.core.records.RecordBatch` (read as rows) or any
        records -- into the graph; returns how many records were
        applied.  Live query engines call this once per group Waldo
        drains into the database."""
        return self._splice(slots_of(records))

    def _splice(self, *streams: Iterable) -> int:
        """The one splice loop: flat slot streams, three slots per
        record (subject, attr, value), spliced into the graph in one
        pass; returns how many records were applied.

        The pass memoises runs: the subject's node is resolved once per
        run of rows about one subject *instance* (a database yields each
        object's rows together, with one ref per run as the analyzer
        resolved it), and the label, framing test and identity test once
        per run of one attribute string.  Identity-atom sharing and
        member classification wait for the end of the call
        (:meth:`_settle`), and the vocabulary epoch moves at most once
        per call.  Splitting a stream into consecutive calls gives the
        graph one call over the whole stream gives.  With an index
        catalog attached, every atom and edge is noted in it.
        """
        # Everything allocated here stays alive in the graph (a build's
        # nodes and a drained group's alike), so the cyclic collector is
        # paused for the pass: left on, it re-scans the growing heap
        # hundreds of times, once in full, for nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            nodes = self._nodes
            new_node = self._new_node
            labels = self._labels
            atom_labels = self._atom_labels
            edge_labels = self._edge_labels
            catalog = self.indexes
            vocabulary = (len(atom_labels), len(edge_labels),
                          len(self._members))
            #: pnode -> its identity atoms, arrival-ordered (label, value).
            identity: dict[int, list] = defaultdict(list)
            #: The nodes this call creates, in creation order.
            created: list[OEMNode] = []
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
                        node = nodes.get(ref) or new_node(ref, created)
                        atoms = node.atoms
                        edges = node.edges
                    if isinstance(value, ObjectRef):
                        target = nodes.get(value) or new_node(value, created)
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
                        if catalog is not None:
                            catalog.note_edge(label)
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
                        if catalog is not None:
                            catalog.note_atom(node, label, value)
                    if not noted:
                        atom_labels.add(label)
                        noted = True
            self.records_applied += count
            self._settle(identity, created)
        finally:
            if collecting:
                gc.enable()
        if vocabulary != (len(atom_labels), len(edge_labels),
                          len(self._members)):
            self.vocab_epoch += 1
        return count

    def _new_node(self, ref: ObjectRef, created: list) -> OEMNode:
        """Create the node of a version first seen in this call.  It
        takes the identity atoms its older versions hold (every version
        holds the same ones, in arrival order) and waits in ``created``
        for :meth:`_settle` to classify it."""
        sibling = self._by_pnode.get(ref.pnode)
        if sibling.__class__ is list:
            sibling = sibling[0]
        node = OEMNode(ref)
        self._nodes[ref] = node
        bucket_add(self._by_pnode, ref.pnode, node)
        created.append(node)
        for label, values in sibling.atoms.items() if sibling else ():
            if label in _IDENTITY_LABELS:
                for value in values:
                    self._share_atom(node, label, value)
        return node

    def _share_atom(self, node: OEMNode, label: str, value) -> None:
        """Add one identity atom to one node unless it holds it already,
        noting it in the catalog."""
        if value not in node.atoms.get(label, ()):
            _add_atom(node.atoms, label, value)
            if self.indexes is not None:
                self.indexes.note_atom(node, label, value)

    def _settle(self, identity: dict, created: list) -> None:
        """The end of a splice, O(delta): share each identity atom the
        call saw onto every version of its object, then classify the
        nodes the call created, in creation order, and the older
        versions the sharing touched."""
        # Older versions exist only if the graph held nodes before the
        # call; a build holds none, so it needs no set of its nodes.
        fresh = (set(created) if identity and len(created) < len(self._nodes)
                 else None)
        for pnode, pairs in identity.items():
            for node in bucket_nodes(self._by_pnode[pnode]):
                atoms = node.atoms
                typed, named = "type" in atoms, len(atoms.get("name", ()))
                for label, value in pairs:
                    self._share_atom(node, label, value)
                if fresh is not None and node not in fresh:
                    self._index_node(node, typed, named)
        if created:
            self._members["node"] += created
            for node in created:
                self._index_node(node, False, 0)

    def _index_node(self, node: OEMNode, typed: bool, named: int) -> None:
        """File ``node`` under the ``Provenance`` member of its TYPE
        unless it was ``typed`` already (the first TYPE decides), and in
        the name index under each NAME past its first ``named``."""
        if not typed:
            node_type = node.type
            if isinstance(node_type, str) and node_type:
                self._members[node_type.lower()].append(node)
        for name in node.atoms.get("name", ())[named:]:
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
