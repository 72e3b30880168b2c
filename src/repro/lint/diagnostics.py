"""Diagnostics framework: rule registry, severities, the reporter.

Every check in :mod:`repro.lint` is a registered :class:`Rule` with a
stable ``PL###`` code.  Codes in the PL1xx range are PQL query checks;
PL2xx are layer-discipline checks over the source tree, and PL303 (the
one PL3xx code) guards batches handed across a layer boundary; both
run one module at a time.  Analyzers emit :class:`Diagnostic`
instances through :meth:`Rule.at`, so a diagnostic can never reference
an unregistered code and the registry doubles as the documentation
table (:func:`all_rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severities, in increasing order of gravity.  Only ``ERROR`` blocks
#: query execution (engine pre-pass) or fails the lint exit status.
WARNING = "warning"
ERROR = "error"

_SEVERITIES = (WARNING, ERROR)


@dataclass(frozen=True)
class Rule:
    """One registered check: stable code, default severity, summary."""

    code: str                  # "PL101"
    severity: str              # WARNING | ERROR
    title: str                 # short imperative summary
    detail: str = ""           # one-paragraph description

    def at(self, message: str, source: str = "<query>",
           line: int = 0, column: int = 0) -> "Diagnostic":
        """Emit one diagnostic of this rule."""
        return Diagnostic(self.code, self.severity, message, source,
                          line, column)


#: The global registry, code -> Rule, in registration order.
_REGISTRY: dict[str, Rule] = {}


def rule(code: str, severity: str, title: str, detail: str = "") -> Rule:
    """Register a rule; codes must be unique and severities known."""
    if severity not in _SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code!r}")
    registered = Rule(code, severity, title, detail)
    # Import-time registration only: every rule module runs this at
    # module scope, before any checker exists.
    _REGISTRY[code] = registered
    return registered


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    # Importing the analyzers registers their rules.
    from repro.lint import layercheck, pqlcheck  # noqa: F401
    return sorted(_REGISTRY.values(), key=lambda r: r.code)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule fired at a position in a query or file."""

    code: str
    severity: str
    message: str
    source: str = "<query>"    # file path or "<query>"
    line: int = 0              # 1-based; 0 = no position
    column: int = 0            # 0-based, matching the PQL lexer

    def __str__(self) -> str:
        where = self.source
        if self.line:
            where = f"{where}:{self.line}:{self.column}"
        return f"{where}: {self.severity} {self.code}: {self.message}"


@dataclass
class LintReport:
    """Outcome of one lint run over any number of targets."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    targets_checked: int = 0

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was found."""
        return not self.errors

    def __str__(self) -> str:
        status = ("clean" if not self.diagnostics
                  else f"{len(self.errors)} error(s), "
                       f"{len(self.warnings)} warning(s)")
        return (f"passlint: {self.targets_checked} target(s) checked, "
                f"{status}")


# -- reporter ----------------------------------------------------------------


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per diagnostic plus a summary."""
    lines = [str(d) for d in report.diagnostics]
    lines.append(str(report))
    return "\n".join(lines)
