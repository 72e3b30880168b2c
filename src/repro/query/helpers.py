"""Convenience queries: ancestry, descendants, and provenance diffing.

These wrap the common questions from the paper's use cases -- "what is
the complete ancestry of this output?", "what descended from this
download?", "how does the ancestry of Monday's output differ from
Wednesday's?" -- so applications don't have to write PQL for them.

Every helper walks an :class:`~repro.pql.oem.OEMGraph` -- in a running
system the live one, ``System.query_engine().graph``, which already
federates every volume: forward edges from ``node.edges``, reverse
edges from ``node.redges``, names from :meth:`OEMGraph.named`, versions
from :meth:`OEMGraph.versions_of`.  A node's neighbours come grouped by
edge label, each label's in record order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.pnode import ObjectRef
from repro.core.records import Attr

if TYPE_CHECKING:  # pragma: no cover
    from repro.pql.oem import OEMGraph


def _labels(attrs: frozenset) -> frozenset:
    """The graph's edge labels for record attributes."""
    return frozenset(attr.lower() for attr in attrs)


#: Edge labels of :data:`Attr.ANCESTRY_ATTRS`.
ANCESTRY_LABELS = _labels(Attr.ANCESTRY_ATTRS)


def neighbours(graph: "OEMGraph", ref: ObjectRef, labels: frozenset,
               reverse: bool = False) -> list[ObjectRef]:
    """Refs one edge away from ``ref`` over ``labels``: forward edges
    (its dependencies), or with ``reverse`` the versions pointing at it.
    Grouped by label; a ref reached twice is listed twice."""
    node = graph.node(ref)
    if node is None:
        return []
    edges = node.redges if reverse else node.edges
    return [target.ref for label, targets in edges.items()
            if label in labels for target in targets]


def _closure(graph: "OEMGraph", ref: ObjectRef, attrs: frozenset,
             reverse: bool) -> set[ObjectRef]:
    labels = _labels(attrs)
    seen: set[ObjectRef] = set()
    frontier = [ref]
    while frontier:
        for found in neighbours(graph, frontier.pop(), labels, reverse):
            if found not in seen:
                seen.add(found)
                frontier.append(found)
    return seen


def ancestry_refs(graph: "OEMGraph", ref: ObjectRef,
                  attrs: frozenset = Attr.ANCESTRY_ATTRS) -> set[ObjectRef]:
    """Every ref transitively reachable over ancestry edges."""
    return _closure(graph, ref, attrs, reverse=False)


def descendant_refs(graph: "OEMGraph", ref: ObjectRef,
                    attrs: frozenset = Attr.ANCESTRY_ATTRS
                    ) -> set[ObjectRef]:
    """Every ref that transitively depends on ``ref``.

    Later versions of an object implicitly contain its earlier versions
    (PREV_VERSION edges), so taint naturally flows across freezes.
    """
    return _closure(graph, ref, attrs, reverse=True)


def newest_ref_by_name(graph: "OEMGraph", name: str) -> ObjectRef:
    """The newest version of the newest object carrying NAME == name."""
    pnodes = {node.ref.pnode for node in graph.named(name)}
    if not pnodes:
        from repro.core.errors import UnknownPnode
        raise UnknownPnode(f"no object named {name!r} in the graph")
    return max(graph.versions_of(pnode)[-1].ref for pnode in pnodes)


def describe(graph: "OEMGraph", ref: ObjectRef) -> dict:
    """Human-oriented summary of one object version: ``attrs`` maps
    each record attribute to its values (refs for edges).  Identity
    atoms (NAME, TYPE, ...) are the object's, shared by every version."""
    info: dict = {"ref": ref, "attrs": {}}
    node = graph.node(ref)
    if node is None:
        return info
    attr_of = graph.attr_names()
    for label, values in node.atoms.items():
        info["attrs"][attr_of[label]] = list(values)
    for label, targets in node.edges.items():
        info["attrs"][attr_of[label]] = [target.ref for target in targets]
    return info


def explain_dependency(graph: "OEMGraph", descendant: ObjectRef,
                       ancestor: ObjectRef,
                       max_paths: int = 5) -> list[list[ObjectRef]]:
    """*Why* does ``descendant`` depend on ``ancestor``?

    Returns up to ``max_paths`` dependency chains (each a list of refs
    from descendant to ancestor, inclusive), shortest first -- the
    evidence behind answers like "your presentation is tainted by the
    codec because presentation <- malware-process <- codec.bin".
    """
    if max_paths <= 0:
        return []
    # BFS from the descendant, keeping predecessor lists so several
    # shortest paths can be reconstructed.
    paths: list[list[ObjectRef]] = []
    frontier: list[list[ObjectRef]] = [[descendant]]
    visited_depth: dict[ObjectRef, int] = {descendant: 0}
    while frontier and len(paths) < max_paths:
        next_frontier: list[list[ObjectRef]] = []
        for path in frontier:
            for parent in neighbours(graph, path[-1], ANCESTRY_LABELS):
                if parent == ancestor:
                    candidate = path + [parent]
                    if candidate not in paths:
                        paths.append(candidate)
                        if len(paths) >= max_paths:
                            return paths
                    continue
                depth = visited_depth.get(parent)
                if depth is not None and depth < len(path):
                    continue
                visited_depth[parent] = len(path)
                next_frontier.append(path + [parent])
        frontier = next_frontier
    return paths


def provenance_diff(graph: "OEMGraph", left: ObjectRef,
                    right: ObjectRef) -> dict:
    """How do two objects' ancestries differ?

    Returns refs only in the left ancestry, only in the right, and
    shared -- the primitive behind the paper's "why is Wednesday's
    output different from Monday's?" use case.
    """
    left_set = ancestry_refs(graph, left)
    right_set = ancestry_refs(graph, right)
    return {
        "only_left": left_set - right_set,
        "only_right": right_set - left_set,
        "common": left_set & right_set,
    }
