"""passlint: static analysis for PQL queries and layer discipline.

The dynamic enforcement story (``repro.core.analyzer`` at record time,
``repro.storage.fsck`` after the fact) catches violations once they have
cost something.  This package rejects them before they run:

* :mod:`repro.lint.pqlcheck` walks a parsed PQL query and reports
  unknown edge labels and attributes, unbound or shadowed variables,
  type-incompatible comparisons, always-empty constructs, and
  unbounded-closure cost hazards -- every diagnostic positioned with
  the lexer's line/column.
* :mod:`repro.lint.layercheck` walks the ``repro`` source tree itself,
  one module at a time, and enforces the paper's Figure 2 layering as
  import rules, confines transaction framing to the storage/NFS
  layers, rejects mutation of finalized provenance records, and keeps
  batch entry points from mutating a batch that crossed a layer
  boundary (PL303).

Diagnostics carry ``PL###`` codes (PL1xx = PQL, PL2xx and PL303 =
source tree) and come in two severities; the reporter renders them
as text.  The package re-exports only the diagnostics; each
analyzer is imported from its own module, so a PQL query loads
:mod:`~repro.lint.pqlcheck` and not the source-tree checker.
"""

from repro.lint.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    LintReport,
    Rule,
    all_rules,
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
    "render_text",
    "rule",
]
