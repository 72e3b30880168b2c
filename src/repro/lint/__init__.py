"""passlint: static analysis for PQL queries and layer discipline.

The dynamic enforcement story (``repro.core.analyzer`` at record time,
``repro.storage.fsck`` after the fact) catches violations once they have
cost something.  This package rejects them before they run:

* :mod:`repro.lint.pqlcheck` walks a parsed PQL query and reports
  unknown edge labels and attributes, unbound or shadowed variables,
  type-incompatible comparisons, always-empty constructs, and
  unbounded-closure cost hazards -- every diagnostic positioned with
  the lexer's line/column.
* :mod:`repro.lint.layercheck` walks the ``repro`` source tree itself
  and enforces the paper's Figure 2 layering as import rules, confines
  transaction framing to the storage/NFS layers, and rejects mutation
  of finalized provenance records.
* :mod:`repro.lint.callgraph` builds a whole-program symbol table and
  module call graph (plain ``ast``, nothing under analysis imported),
  and :mod:`repro.lint.flowcheck` runs dataflow rules over it: layer
  discipline through objects, cross-layer private-state reaches, batch
  escape/mutation across boundaries, shared mutable state, and
  dynamic imports.

Diagnostics carry ``PL###`` codes (PL1xx = PQL, PL2xx = layering,
PL3xx = dataflow) and come in two severities; reporters render them as
text or JSON.  ``lint: disable=PL###`` trailing comments suppress a
diagnostic on their line; unused suppressions are themselves reported.
The package re-exports only the diagnostics; each analyzer is imported
from its own module, so a PQL query loads :mod:`~repro.lint.pqlcheck`
and none of the whole-program analyzers.
"""

from repro.lint.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    LintReport,
    Rule,
    all_rules,
    render_json,
    render_text,
    rule,
)

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "LintReport",
    "Rule",
    "all_rules",
    "render_json",
    "render_text",
    "rule",
]
