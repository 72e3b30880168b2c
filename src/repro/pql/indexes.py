"""Secondary indexes and the ancestry-closure memo.

The live OEM graph answers point lookups by linear scan and closures
by per-node dict chasing; at millions of records that stops being
interactive (the whole point of the paper's layering is that "where did
this file come from" *stays* answerable as the system grows).  This
module is the access-path layer the cost-based planner
(:mod:`repro.pql.planner`) chooses from:

* :class:`EqualityIndex` -- hash index ``atom value -> nodes`` for one
  atom label, built lazily on first demand (one O(nodes) scan) and then
  maintained in O(1) per atom as records splice into the graph;
* :class:`RangeIndex` -- sorted ``(number, node)`` pairs for one atom
  label (``time`` and friends), bisect lookups for range predicates,
  insort maintenance;
* :class:`AncestryView` -- a memo of ancestry (``input``-class) closures
  for one graph state, LRU-bounded, emptied by the next ancestry edge:
  repeated backward/forward ancestry queries between arrivals cost one
  dict lookup.  Every other closure walks the live dicts.

Everything hangs off one :class:`IndexCatalog`, attached to the graph
by the query engine (``graph.indexes``).  The graph's one splice loop
(``OEMGraph._splice``, behind ``build`` and ``apply_batch``) notifies
the catalog of every atom and edge (``note_atom``/``note_edge``) --
O(delta) maintenance, no epoch races: an index built at time T scans
the graph as of T and receives every later delta through the
notification hooks, so it never goes stale; the memo never outlives
the graph state it was walked on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from operator import itemgetter
from typing import Iterable

from repro.core.records import Attr
from repro.pql.oem import OEMGraph, OEMNode, bucket_add, bucket_nodes

#: Lowercased ancestry edge labels: the "input-class" edges the
#: ancestry memo covers.
ANCESTRY_LABELS = frozenset(attr.lower() for attr in Attr.ANCESTRY_ATTRS)

#: Closures the ancestry memo retains (LRU beyond this).
VIEW_MAX_ENTRIES = 512


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class EqualityIndex:
    """Hash index ``value -> nodes`` over one atom label.

    A bucket *is the node* while one node holds the value and becomes a
    list when a second entry arrives: most values (checksums,
    annotations) are held once, and a one-element list per value is one
    more object for the allocator and the cycle collector to carry.
    """

    __slots__ = ("label", "_buckets")

    def __init__(self, label: str, nodes: Iterable[OEMNode]):
        self.label = label
        self._buckets: dict = {}
        buckets = self._buckets
        # One pass over locals: :meth:`add`, inline, per value.
        get = buckets.get
        for node in nodes:
            for value in node.atoms.get(label, ()):
                try:
                    bucket = get(value)
                except TypeError:   # unhashable value: not indexable
                    continue
                if bucket is None:
                    buckets[value] = node
                elif bucket.__class__ is list:
                    bucket.append(node)
                else:
                    buckets[value] = [bucket, node]

    def add(self, value, node: OEMNode) -> None:
        """O(1) maintenance: one new atom value on one node."""
        try:
            bucket_add(self._buckets, value, node)
        except TypeError:           # unhashable value: not indexable
            pass

    def lookup(self, value) -> list[OEMNode]:
        """Nodes holding ``value``, as a list the caller owns."""
        try:
            return bucket_nodes(self._buckets.get(value))
        except TypeError:
            return []

    def estimate(self, value) -> int:
        return len(self.lookup(value))

    def __len__(self) -> int:
        return sum(len(bucket) if bucket.__class__ is list else 1
                   for bucket in self._buckets.values())


class RangeIndex:
    """Sorted ``(number, node)`` pairs over one atom label.

    Only numeric atom values are indexed (bool excluded); lookups
    answer half-open / closed range predicates by bisect.  The sort key
    is ``(value, insertion seq)`` so heterogeneous ints/floats compare
    fine and nodes never need ordering.

    Comparisons are existential: ``V.label >= a and V.label < b`` also
    holds for a node with one value above ``b`` and another below ``a``.
    So the index keeps the (normally empty) set of nodes holding several
    numbers under the label and adds them to every two-sided answer.
    """

    __slots__ = ("label", "_pairs", "_seq", "_multi")

    def __init__(self, label: str, nodes: Iterable[OEMNode]):
        self.label = label
        self._pairs: list[tuple] = []
        self._multi: dict[OEMNode, None] = {}       # insertion-ordered set
        # One pass over locals: :meth:`add` and :meth:`_note_multi`,
        # inline, per node.
        pairs = self._pairs
        multi = self._multi
        seq = 0
        for node in nodes:
            numbers = 0
            for value in node.atoms.get(label, ()):
                if isinstance(value, (int, float)) \
                        and value.__class__ is not bool:
                    seq += 1
                    pairs.append((value, seq, node))
                    numbers += 1
            if numbers > 1:
                multi[node] = None
        self._seq = seq
        # One stable sort by value: seq order within a value survives.
        pairs.sort(key=itemgetter(0))

    def add(self, value, node: OEMNode) -> None:
        """O(log n) maintenance: one new atom value on one node (already
        spliced into ``node.atoms``, as the graph's notification is)."""
        if not _is_number(value):
            return
        self._seq += 1
        insort(self._pairs, (value, self._seq, node))
        self._note_multi(node)

    def _note_multi(self, node: OEMNode) -> None:
        values = node.atoms.get(self.label, ())
        if len(values) > 1 and sum(map(_is_number, values)) > 1:
            self._multi[node] = None

    def _bounds(self, low, low_inc: bool, high, high_inc: bool):
        """Slice bounds into ``_pairs``, plus the multi-valued nodes a
        two-sided range must also offer (none for a one-sided one)."""
        pairs = self._pairs
        lo = 0
        hi = len(pairs)
        if low is not None:
            key = (low, -1 if low_inc else self._seq + 1)
            lo = bisect_left(pairs, key)
        if high is not None:
            key = (high, self._seq + 1 if high_inc else -1)
            hi = bisect_right(pairs, key, lo)
        both = low is not None and high is not None
        return lo, hi, self._multi if both else ()

    def lookup(self, low, low_inc: bool, high, high_inc: bool
               ) -> list[OEMNode]:
        """Nodes that can satisfy the bound(s): those with some value in
        the range, plus -- for a two-sided range -- the multi-valued
        nodes.  A node appears once per matching value: callers dedup,
        and the WHERE conjuncts decide each row anyway."""
        lo, hi, multi = self._bounds(low, low_inc, high, high_inc)
        nodes = [pair[2] for pair in self._pairs[lo:hi]]
        nodes.extend(multi)
        return nodes

    def estimate(self, low, low_inc: bool, high, high_inc: bool) -> int:
        lo, hi, multi = self._bounds(low, low_inc, high, high_inc)
        return hi - lo + len(multi)

    def __len__(self) -> int:
        return len(self._pairs)


class AncestryView:
    """Ancestry closures memoised for one graph state.

    A closure is every node reachable from a root over some ancestry
    edge labels, one direction, one-or-more hops.  The memo holds the
    last ``max_entries`` of them (LRU) and is emptied by the first new
    ancestry edge the graph's splice loop notes (:meth:`note_edge`):
    a burst of arrivals costs one ``clear``, never a replay per cached
    closure, and the next read of each root walks the live graph again.
    """

    def __init__(self, max_entries: int = VIEW_MAX_ENTRIES):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, list[OEMNode]] = OrderedDict()
        self.refreshes = 0          # closures walked (memo misses)
        self.hits = 0               # reads served from the memo
        self.invalidations = 0      # emptyings by a new ancestry edge

    def note_edge(self) -> None:
        """One new ancestry edge: the graph state moved on."""
        if self._entries:
            self._entries.clear()
            self.invalidations += 1

    def closure(self, root: OEMNode, labels: tuple,
                reverse: bool) -> list[OEMNode]:
        """Nodes reachable from ``root`` in one-or-more hops over
        ``labels`` -- a *sorted tuple* of edge labels, so walks and
        memo keys are deterministic -- in discovery order.  The walk
        starts at the root's neighbours, so the root is in its own
        closure only when a cycle reaches it again."""
        key = (id(root), labels, reverse)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        reached: dict[OEMNode, None] = {}   # nodes hash by identity
        layer = [root]
        while layer:
            next_layer: list[OEMNode] = []
            for node in layer:
                lists = node.redges if reverse else node.edges
                for label in labels:
                    for target in lists.get(label, ()):
                        if target not in reached:
                            reached[target] = None
                            next_layer.append(target)
            layer = next_layer
        entry = list(reached)
        self._entries[key] = entry
        self.refreshes += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class IndexCatalog:
    """Every secondary access path of one OEM graph, plus counters.

    Attach with :meth:`attach` (the query engine does); the graph then
    notifies the catalog of every atom/edge delta.  Indexes build
    lazily on first demand and are maintained forever after -- there is
    no rebuild path to get out of sync with (the property tests assert
    maintained == rebuilt-from-scratch anyway).
    """

    def __init__(self, graph: OEMGraph):
        self.graph = graph
        self._eq: dict[str, EqualityIndex] = {}
        self._rng: dict[str, RangeIndex] = {}
        #: atom label -> indexes watching it (the one-lookup hot path).
        self._watch: dict[str, list] = {}
        self.view = AncestryView()
        #: id() of Observability instances already harvesting
        #: :meth:`counters` (engines sharing a graph share the catalog;
        #: each obs should fold the counters in exactly once).
        self.collector_obs: set[int] = set()
        # Counters (harvested as a passmon collector under "pql").
        self.index_hits = 0         # bindings answered from an index
        self.index_misses = 0       # bindings answered by full scan
        self.index_builds = 0       # lazy index constructions

    # -- wiring ----------------------------------------------------------------

    @classmethod
    def attach(cls, graph: OEMGraph) -> "IndexCatalog":
        """The catalog for ``graph``, creating and attaching on first
        call (engines sharing a graph share its catalog)."""
        catalog = graph.indexes
        if catalog is None:
            catalog = cls(graph)
            graph.indexes = catalog
        return catalog

    # -- graph notification hooks (O(delta) maintenance) -----------------------

    def note_atom(self, node: OEMNode, label: str, value) -> None:
        watchers = self._watch.get(label)
        if watchers:
            for index in watchers:
                index.add(value, node)

    def note_edge(self, label: str) -> None:
        if label in ANCESTRY_LABELS:
            self.view.note_edge()

    # -- equality / range indexes ----------------------------------------------

    def equality(self, label: str) -> EqualityIndex:
        """The equality index for one atom label (built on first use)."""
        index = self._eq.get(label)
        if index is None:
            index = EqualityIndex(label, self.graph.nodes())
            self._eq[label] = index
            self._watch.setdefault(label, []).append(index)
            self.index_builds += 1
        return index

    def range(self, label: str) -> RangeIndex:
        """The range index for one atom label (built on first use)."""
        index = self._rng.get(label)
        if index is None:
            index = RangeIndex(label, self.graph.nodes())
            self._rng[label] = index
            self._watch.setdefault(label, []).append(index)
            self.index_builds += 1
        return index

    def equality_lookup(self, label: str, value) -> list[OEMNode]:
        """Nodes with ``label`` atom equal to ``value``.  The ``name``
        label rides the graph's own always-maintained name index; other
        labels go through (and lazily build) an :class:`EqualityIndex`."""
        if label == "name" and isinstance(value, str):
            return self.graph.named(value)
        return self.equality(label).lookup(value)

    def equality_estimate(self, label: str, value) -> int:
        if label == "name" and isinstance(value, str):
            return len(self.graph.named(value))
        return self.equality(label).estimate(value)

    def csr(self) -> None:
        """Always None: closure steps walk the live graph.  Kept only
        as a name the benchmark harness's tracer wraps."""
        return None

    # -- observability ---------------------------------------------------------

    def counters(self) -> dict:
        """Passmon collector payload (layer ``pql``)."""
        return {
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "index_builds": self.index_builds,
            "view_refreshes": self.view.refreshes,
            "view_hits": self.view.hits,
            "view_invalidations": self.view.invalidations,
            # Declared in the benchmark ledger; nothing builds a CSR.
            "csr_rebuilds": 0,
            "csr_fallbacks": 0,
        }

    def __repr__(self) -> str:
        return (f"<IndexCatalog eq={sorted(self._eq)} "
                f"rng={sorted(self._rng)} view={len(self.view)}>")
