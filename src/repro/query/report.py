"""Provenance reports: human-readable ancestry trees and record sheets.

The paper notes that "PQL queries, if not posed carefully, can result in
information overload" (section 5.7).  These helpers render bounded,
readable views of the graph: an indented ancestry tree with cycles
impossible (the store is a DAG) and repetition folded, and one
object's record sheet.  Like the helpers, they walk an
:class:`~repro.pql.oem.OEMGraph`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.pnode import ObjectRef
from repro.core.records import Attr
from repro.query.helpers import ANCESTRY_LABELS, describe, neighbours

if TYPE_CHECKING:  # pragma: no cover
    from repro.pql.oem import OEMGraph


def _label(graph: "OEMGraph", ref: ObjectRef) -> str:
    node = graph.node(ref)
    name = node.name if node is not None else None
    obj_type = node.type if node is not None else None
    label = str(name) if name else f"pnode {ref.pnode}"
    if obj_type:
        label = f"{label} [{obj_type}]"
    if ref.version:
        label = f"{label} v{ref.version}"
    return label


def _parents(graph: "OEMGraph", ref: ObjectRef) -> list[ObjectRef]:
    return list(dict.fromkeys(neighbours(graph, ref, ANCESTRY_LABELS)))


def ancestry_tree(graph: "OEMGraph", ref: ObjectRef,
                  max_depth: int = 8) -> str:
    """An indented ancestry tree rooted at ``ref``.

    Objects reached more than once are printed once and referenced as
    ``(see above)`` afterwards; depth is bounded to keep output usable.
    """
    lines: list[str] = []
    seen: set[ObjectRef] = set()

    def walk(node: ObjectRef, depth: int) -> None:
        indent = "  " * depth
        label = _label(graph, node)
        if node in seen:
            lines.append(f"{indent}{label} (see above)")
            return
        seen.add(node)
        lines.append(f"{indent}{label}")
        if depth >= max_depth:
            parents = _parents(graph, node)
            if parents:
                lines.append(f"{indent}  ... ({len(parents)} ancestors "
                             f"beyond depth limit)")
            return
        for parent in _parents(graph, node):
            walk(parent, depth + 1)

    walk(ref, 0)
    return "\n".join(lines)


def summarize_object(graph: "OEMGraph", ref: ObjectRef) -> str:
    """One object's record sheet, formatted for humans: its atoms, then
    its edges, each attribute's values in record order."""
    lines = [f"object {ref.pnode} version {ref.version}",
             f"  {_label(graph, ref)}"]
    for attr, values in describe(graph, ref)["attrs"].items():
        if attr == Attr.MD5:
            continue
        for value in values:
            if isinstance(value, ObjectRef):
                value = _label(graph, value)
            lines.append(f"  {attr:14s} {value}")
    return "\n".join(lines)
