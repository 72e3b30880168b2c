"""Secondary indexes, CSR adjacency, and materialized ancestry views.

The live OEM graph answers point lookups and closure walks by linear
scan and per-node dict chasing; at millions of records that stops being
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
* :class:`CSRSnapshot` -- a compressed-sparse-row view of the edge
  lists: one int id per node, per-(label, direction) offset/target
  arrays, so closure walks run over flat int arrays instead of chasing
  per-node dict-of-list pointers.  Snapshots rebuild lazily when the
  graph is quiescent and *fall back to the live dict form mid-burst*
  (see :meth:`IndexCatalog.csr`);
* :class:`AncestryView` -- materialized reachability over the ancestry
  (``input``-class) edge labels: per-root frontier summaries cached
  LRU, patched incrementally as new ancestry edges arrive (append-only
  graphs only ever *grow* a closure), making repeated backward/forward
  ancestry queries near-O(answer).

Everything hangs off one :class:`IndexCatalog`, attached to the graph
by the query engine (``graph.indexes``).  The graph's one splice loop
(``OEMGraph._splice``, behind ``build`` and ``apply_batch``) notifies
the catalog of every atom and edge (``note_atom``/``note_edge``) --
O(delta) maintenance, no epoch races: an index built at time T scans
the graph as of T and receives every later delta through the
notification hooks, exactly like the plan cache's epoch discipline but
without ever going stale.  Only the CSR snapshot (a *copy* of the
adjacency) can lag the graph; it carries the epoch it was built at and
is never consulted when stale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict, defaultdict
from operator import itemgetter
from typing import Iterable, Optional

from repro.core.records import Attr
from repro.pql.oem import OEMGraph, OEMNode, bucket_add, bucket_nodes

#: Lowercased ancestry edge labels: the "input-class" edges the
#: materialized ancestry view covers.
ANCESTRY_LABELS = frozenset(attr.lower() for attr in Attr.ANCESTRY_ATTRS)

#: Entries the ancestry view retains (LRU beyond this).
VIEW_MAX_ENTRIES = 512

#: Buffered ancestry deltas beyond which the view drops its entries and
#: starts over instead of patching (a huge burst with live closures
#: cached is cheaper to recompute than to replay edge by edge).
VIEW_MAX_PENDING = 8192


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


class CSRSnapshot:
    """Compressed-sparse-row adjacency over one graph state.

    ``nodes`` is the node table (int id = position); ``arcs(label,
    reverse)`` lazily materializes one label-partitioned offset/target
    array pair.  The snapshot never mutates: it carries the epoch it
    was built at and the catalog discards it when the graph moves on.
    """

    __slots__ = ("epoch", "nodes", "node_id", "_arcs")

    def __init__(self, graph: OEMGraph, epoch):
        self.epoch = epoch
        self.nodes: list[OEMNode] = graph.nodes()
        self.node_id: dict[int, int] = {
            id(node): index for index, node in enumerate(self.nodes)}
        self._arcs: dict[tuple[str, bool], tuple[list, list]] = {}

    def arcs(self, label: str, reverse: bool) -> tuple[list, list]:
        """Offset/target arrays for one (label, direction)."""
        key = (label, reverse)
        built = self._arcs.get(key)
        if built is not None:
            return built
        node_id = self.node_id
        offsets = [0] * (len(self.nodes) + 1)
        targets: list[int] = []
        append = targets.append
        for index, node in enumerate(self.nodes):
            lists = node.redges if reverse else node.edges
            for target in lists.get(label, ()):
                append(node_id[id(target)])
            offsets[index + 1] = len(targets)
        self._arcs[key] = (offsets, targets)
        return offsets, targets

    def bfs(self, roots: list[int], labels: list[tuple[str, bool]],
            minimum: int, maximum: Optional[int]) -> list[int]:
        """Depth-layered BFS over the int arrays, mirroring the
        evaluator's dict walk exactly: every node is visited at its
        shallowest depth, results collect from ``minimum`` outward, and
        discovery order is preserved (same row order either way)."""
        arcs = [self.arcs(label, reverse) for label, reverse in labels]
        result: dict[int, None] = {}
        visited = bytearray(len(self.nodes))
        layer = list(roots)
        depth = 0
        while layer:
            if depth >= minimum:
                for nid in layer:
                    if nid not in result:
                        result[nid] = None
            if maximum is not None and depth >= maximum:
                break
            next_layer: list[int] = []
            for nid in layer:
                for offsets, targets in arcs:
                    for slot in range(offsets[nid], offsets[nid + 1]):
                        tid = targets[slot]
                        if not visited[tid]:
                            visited[tid] = 1
                            next_layer.append(tid)
            layer = next_layer
            depth += 1
        return list(result)


class _Closure:
    """One cached reachability summary: every node reachable from
    ``root`` over ``labels`` in one direction, one-or-more hops."""

    __slots__ = ("root", "labels", "reverse", "members", "order")

    def __init__(self, root: OEMNode, labels: tuple, reverse: bool):
        self.root = root
        self.labels = labels                # sorted tuple: stable walks
        self.reverse = reverse
        self.members: set[int] = set()      # id(node)
        self.order: list[OEMNode] = []      # discovery order

    def absorb(self, seeds: list[OEMNode]) -> None:
        """Expand by BFS from ``seeds`` over the *live* graph (the
        frontier walk); newly reached nodes join the summary."""
        members = self.members
        order = self.order
        labels = self.labels
        reverse = self.reverse
        layer: list[OEMNode] = []
        for node in seeds:
            key = id(node)
            if key not in members:
                members.add(key)
                order.append(node)
                layer.append(node)
        while layer:
            next_layer: list[OEMNode] = []
            for node in layer:
                lists = node.redges if reverse else node.edges
                for label in labels:
                    for target in lists.get(label, ()):
                        key = id(target)
                        if key not in members:
                            members.add(key)
                            order.append(target)
                            next_layer.append(target)
            layer = next_layer


class AncestryView:
    """Materialized ancestry closures, incrementally maintained.

    Provenance graphs are append-only: edges arrive, never leave, so a
    cached closure can only *grow*.  New ancestry edges are buffered by
    :meth:`note_edge`; the next read drains the buffer as one batch:
    the edges are grouped by near side once, each cached closure
    intersects its members with those near sides, and the far sides of
    the edges it touches seed one frontier walk over the live graph.
    A drain costs O(pending) to group, one set intersection per cached
    closure, and O(newly reachable) to walk -- never O(closure), the
    near-O(answer) property the planner sells to ancestry queries.
    """

    def __init__(self, max_entries: int = VIEW_MAX_ENTRIES,
                 max_pending: int = VIEW_MAX_PENDING):
        self.max_entries = max_entries
        self.max_pending = max_pending
        self._entries: OrderedDict[tuple, _Closure] = OrderedDict()
        self._pending: list[tuple[str, OEMNode, OEMNode]] = []
        self.refreshes = 0          # computes + (drain, closure) patches
        self.hits = 0               # reads served from a cached closure
        self.invalidations = 0      # whole-view resets (pending overflow)

    # -- maintenance (graph-notification side) ---------------------------------

    def note_edge(self, label: str, source: OEMNode,
                  target: OEMNode) -> None:
        """Buffer one new ancestry edge (called per graph delta)."""
        if not self._entries:
            return                  # nothing cached: nothing to patch
        self._pending.append((label, source, target))
        if len(self._pending) > self.max_pending:
            # A burst this size is cheaper to recompute than replay.
            self._entries.clear()
            self._pending.clear()
            self.invalidations += 1

    def _drain(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        # Group the burst once per walk direction, label -> id(near) ->
        # [(position, far)]: forward closures cross an edge source ->
        # target, reverse closures target -> source.
        forward = defaultdict(lambda: defaultdict(list))
        backward = defaultdict(lambda: defaultdict(list))
        for position, (label, source, target) in enumerate(pending):
            forward[label][id(source)].append((position, target))
            backward[label][id(target)].append((position, source))
        for closure in self._entries.values():
            grouped = backward if closure.reverse else forward
            touched: list[tuple[int, OEMNode]] = []
            for label in closure.labels:
                near_map = grouped.get(label, {})
                nears = near_map.keys() & closure.members
                nears.add(id(closure.root))
                for near in nears:
                    touched.extend(near_map.get(near, ()))
            if touched:
                # One walk, seeded in pending order.  Edges whose near
                # side joins only through this burst need no seed: the
                # walk is over the live graph, which holds them all.
                touched.sort(key=itemgetter(0))
                closure.absorb([far for _, far in touched])
                self.refreshes += 1

    # -- reads -----------------------------------------------------------------

    def closure(self, root: OEMNode, labels: tuple,
                reverse: bool) -> list[OEMNode]:
        """Nodes reachable from ``root`` in one-or-more hops over
        ``labels`` -- a *sorted tuple* of edge labels, so walks and
        cache keys are deterministic (discovery order out).  Cached;
        patched first."""
        self._drain()
        key = (id(root), labels, reverse)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.order
        entry = _Closure(root, labels, reverse)
        lists = root.redges if reverse else root.edges
        seeds: list[OEMNode] = []
        for label in labels:
            seeds.extend(lists.get(label, ()))
        entry.absorb(seeds)
        self._entries[key] = entry
        self.refreshes += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry.order

    def cached_size(self, root: OEMNode, labels: tuple,
                    reverse: bool) -> Optional[int]:
        """Closure size if cached (the planner's row estimate)."""
        entry = self._entries.get((id(root), labels, reverse))
        return len(entry.order) if entry is not None else None

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
        self._csr: Optional[CSRSnapshot] = None
        self._csr_pending = None
        #: id() of Observability instances already harvesting
        #: :meth:`counters` (engines sharing a graph share the catalog;
        #: each obs should fold the counters in exactly once).
        self.collector_obs: set[int] = set()
        # Counters (harvested as a passmon collector under "pql").
        self.index_hits = 0         # bindings answered from an index
        self.index_misses = 0       # bindings answered by full scan
        self.index_builds = 0       # lazy index constructions
        self.csr_rebuilds = 0       # CSR snapshots built
        self.csr_fallbacks = 0      # stale-CSR walks on the live dicts

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

    def note_edge(self, label: str, source: OEMNode,
                  target: OEMNode) -> None:
        if label in ANCESTRY_LABELS:
            self.view.note_edge(label, source, target)

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

    # -- CSR snapshot ----------------------------------------------------------

    def csr(self) -> Optional[CSRSnapshot]:
        """The CSR adjacency snapshot, or None mid-burst.

        Fresh snapshots are served directly.  A stale snapshot is only
        rebuilt once the graph has been *quiescent* across two
        consecutive requests (same epoch twice); the first request
        after a change returns None -- the caller walks the live dicts
        -- so an ingest burst interleaved with queries never pays a
        rebuild per query.
        """
        graph = self.graph
        epoch = (graph.records_applied, len(graph))
        csr = self._csr
        if csr is not None and csr.epoch == epoch:
            return csr
        if self._csr_pending == epoch:
            csr = CSRSnapshot(graph, epoch)
            self._csr = csr
            self.csr_rebuilds += 1
            return csr
        self._csr_pending = epoch
        self.csr_fallbacks += 1
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
            "csr_rebuilds": self.csr_rebuilds,
            "csr_fallbacks": self.csr_fallbacks,
        }

    def __repr__(self) -> str:
        return (f"<IndexCatalog eq={sorted(self._eq)} "
                f"rng={sorted(self._rng)} view={len(self.view)} "
                f"csr={'fresh' if self._csr is not None else 'none'}>")
