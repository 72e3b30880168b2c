"""High-level query helpers over the OEM graph PQL queries (in a
running system, the live one: ``System.query_engine().graph``)."""

from repro.query.helpers import (
    ancestry_refs,
    descendant_refs,
    explain_dependency,
    provenance_diff,
)

__all__ = [
    "ancestry_refs",
    "descendant_refs",
    "explain_dependency",
    "provenance_diff",
]
