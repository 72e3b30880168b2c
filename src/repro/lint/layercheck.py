"""Layer-discipline checking over the ``repro`` source tree (PL2xx, PL303).

The paper's Figure 2 stacks the system: applications over libpass/DPAPI,
the core pipeline over the kernel, Lasagna/Waldo in storage, PA-NFS
beside them.  Provenance from those layers only composes because each
layer keeps to its interface; this checker enforces that discipline
*statically*, as import rules over the Python source itself, so a
violation is a CI failure instead of a production incident:

* applications (``repro.apps``) may touch only the libpass/DPAPI
  surface (``repro.core``) and each other;
* the core pipeline may reach the kernel only through the interception
  boundary (``kernel.kernel`` / ``kernel.process`` / ``kernel.vfs``)
  and must never import storage, NFS, or anything above itself;
* every other layer has an explicit allow-list (see ``_ALLOWED``);
* transaction framing (``BEGINTXN`` / ``ENDTXN``) is confined to the
  storage and NFS layers -- nothing else may even name those records;
* finalized ``ProvenanceRecord`` instances are immutable: the frozen
  bypass ``object.__setattr__`` and direct writes to record fields are
  rejected everywhere;
* a batch handed to a ``submit_batch``/``apply_batch``-style entry
  point is the caller's: the entry point may not mutate it, nor keep
  it and let another method of its class mutate it later (PL303).

Every check reads one module at a time: a plain :mod:`ast` pass, no
symbol table, and no module under test is imported.
"""

from __future__ import annotations

import ast as pyast
import os
from typing import Iterable, Optional

from repro.lint.diagnostics import ERROR, WARNING, Diagnostic, Rule, rule

# -- rules -------------------------------------------------------------------

PL200 = rule(
    "PL200", ERROR, "module does not parse",
    "A module that is not valid Python cannot be checked for any other "
    "rule, so it is reported instead of passing as clean.")
PL201 = rule(
    "PL201", ERROR, "application layer reaches below libpass/DPAPI",
    "Modules under repro.apps may import only repro.apps and the "
    "repro.core surface (libpass, DPAPI, records, errors); reaching "
    "into the kernel, storage, NFS, or query layers bypasses the "
    "disclosure interface.")
PL202 = rule(
    "PL202", ERROR, "core pipeline escapes the interception boundary",
    "repro.core may import kernel internals only through the "
    "interception boundary (kernel.kernel, kernel.process, kernel.vfs) "
    "and must never import storage, NFS, PQL, apps, or the system "
    "facade.")
PL203 = rule(
    "PL203", ERROR, "layer-discipline import violation",
    "A module imports a layer outside its allow-list (Figure 2 "
    "layering: kernel below core, storage beside the kernel, PQL and "
    "apps on top, the system facade above all).")
PL205 = rule(
    "PL205", ERROR, "transaction framing outside storage/NFS",
    "BEGINTXN/ENDTXN framing records belong to the Lasagna log and the "
    "PA-NFS wire protocol; any other layer naming them can leak "
    "framing into databases (the fsck 'framing-leak' finding, caught "
    "at build time).")
PL206 = rule(
    "PL206", ERROR, "mutation of a finalized provenance record",
    "ProvenanceRecord is frozen; object.__setattr__ bypasses and "
    "direct writes to record fields (subject/attr/value) corrupt "
    "provenance that other layers already trust.")
PL207 = rule(
    "PL207", WARNING, "wildcard import",
    "'from x import *' makes the import graph -- and therefore the "
    "layering -- unauditable.")
PL208 = rule(
    "PL208", ERROR, "observability layer is not a leaf",
    "repro.obs sits beside repro.core.errors as a leaf every layer may "
    "import; the moment it imports any other repro layer, every "
    "instrumentation site becomes a hidden cross-layer edge and the "
    "Figure-2 discipline collapses.")
PL209 = rule(
    "PL209", ERROR, "fault layer reaches above the kernel",
    "repro.faults is injection machinery held by sites across the "
    "stack; it may import only itself, the kernel, and obs.  A "
    "core/storage/nfs back-edge would make every injection site a "
    "hidden upward dependency (the crashlab harness that drives whole "
    "systems lives in repro.crashlab, above the layers).")
PL210 = rule(
    "PL210", ERROR, "query layer pulls from storage",
    "repro.pql must not import repro.storage: the OEM graph *receives* "
    "records -- batch-built from a stream and kept live through "
    "ProvenanceDatabase.subscribe_batch's push feed -- it never reaches "
    "into the database to pull them.  Waldo serves the engine (section "
    "5.1), not the other way round; a storage import here inverts that "
    "ownership and couples query evaluation to the store's layout.")
PL303 = rule(
    "PL303", ERROR, "batch mutated after crossing a layer boundary",
    "A submit_batch/append_batch/apply_batch-style entry point mutates "
    "its batch argument, or retains it and mutates it later.  Batches "
    "are shared, not transferred: the producer may still hold the "
    "object, and a subscriber may be handed the same one.  Copy "
    "before mutating, or build a new batch.")

#: Layer allow-lists: module-prefix of the *importing* layer -> import
#: prefixes it may use.  The longest matching importer prefix wins.
#: Anything under ``repro.`` not matched here is unconstrained (the
#: system facade, CLI, workloads, and query conveniences sit above
#: every layer by design).
_ALLOWED: dict[str, tuple[str, ...]] = {
    # Applications: the disclosure surface only.
    "repro.apps": ("repro.apps", "repro.core", "repro.obs"),
    # Core pipeline: itself + the kernel interception boundary.  The
    # boundary includes the stacked volume data path (fs_top /
    # read_bytes / write_bytes): the observer reads and writes file
    # bytes through the same volume stack the VFS interposes on.
    "repro.core": ("repro.core", "repro.kernel.kernel",
                   "repro.kernel.process", "repro.kernel.vfs",
                   "repro.kernel.volume",
                   "repro.obs", "repro.faults"),
    # Kernel: itself + core datatypes (records flow upward only).
    "repro.kernel": ("repro.kernel", "repro.core", "repro.obs",
                     "repro.faults"),
    # PQL: itself, core datatypes, and the static analyzer pre-pass.
    "repro.pql": ("repro.pql", "repro.core", "repro.lint", "repro.obs"),
    # Storage: itself, core, kernel structures it persists to, and the
    # query engine Waldo serves.
    "repro.storage": ("repro.storage", "repro.core", "repro.kernel",
                      "repro.pql", "repro.obs", "repro.faults"),
    # NFS: a distributed client/server pair; it drives whole systems.
    "repro.nfs": ("repro.nfs", "repro.core", "repro.kernel",
                  "repro.storage", "repro.system", "repro.obs",
                  "repro.faults"),
    # The linter itself: core vocabulary + the PQL AST it checks.
    "repro.lint": ("repro.lint", "repro.core", "repro.pql", "repro.obs"),
    # Observability: a leaf beside core.errors -- every layer above may
    # import it, it may import nothing (PL208).
    "repro.obs": ("repro.obs",),
    # Fault injection: a near-leaf beside obs.  Sites everywhere hold
    # an injector, so it may not depend on the layers hosting them
    # (PL209): itself, the kernel below, and obs only.
    "repro.faults": ("repro.faults", "repro.kernel", "repro.obs"),
}

#: Layers that must never import the system facade or the CLI
#: (they sit *below* them in Figure 2).
_NO_FACADE = ("repro.apps", "repro.core", "repro.kernel", "repro.pql",
              "repro.storage", "repro.lint", "repro.obs", "repro.faults")

#: Modules allowed to name the framing attributes: the Lasagna log and
#: recovery, Waldo (which strips orphans), fsck (which checks for
#: leakage), the PA-NFS protocol, the attribute declaration itself,
#: the OEM builder (which must strip framing from query graphs), and
#: this linter (which must name them to police them).
_FRAMING_ATTRS = frozenset({"BEGINTXN", "ENDTXN"})
_FRAMING_ALLOWED = ("repro.storage", "repro.nfs", "repro.core.records",
                    "repro.pql.oem", "repro.lint")

#: Record fields whose assignment outside a record's own methods is a
#: finalized-record mutation.
_RECORD_FIELDS = frozenset({"subject", "attr", "value"})
#: Words of a variable name (split at underscores, plural "s" dropped)
#: that mark it as holding a record: ``record``, ``first_rec`` and
#: ``protos`` do, ``direction`` does not.
_RECORD_NAME_WORDS = frozenset({"record", "rec", "proto"})

#: Batch entry-point names whose first non-self argument is a batch
#: that crossed a layer boundary (PL303).
_BATCH_ENTRY_POINTS = frozenset({
    "submit_batch", "append_batch", "apply_batch", "flush_batch",
    "insert_many",
})

#: Receiver method names that mutate a container in place.
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "remove", "reverse",
    "setdefault", "sort", "update",
})


# -- entry points ------------------------------------------------------------


def check_tree(root: str) -> list[Diagnostic]:
    """Check every ``*.py`` under ``root`` (a path at or inside the
    ``repro`` package, or a tree containing it).

    Files outside a ``repro`` package are skipped; a ``root`` that
    holds no module of the package at all raises :class:`ValueError`,
    so a mistyped target cannot pass as clean.
    """
    diagnostics: list[Diagnostic] = []
    checked = 0
    for path in sorted(_python_files(root)):
        module = _module_name(path)
        if module is None:
            continue
        checked += 1
        with open(path, "r", encoding="utf-8") as handle:
            diagnostics.extend(check_source(handle.read(), module, path))
    if not checked:
        raise ValueError(f"no module of the repro package under {root!r}")
    return diagnostics


def check_source(source: str, module: str,
                 path: str = "<source>") -> list[Diagnostic]:
    """Check one module's source text, attributed to ``module``
    (dotted name, e.g. ``repro.apps.shellutils``)."""
    try:
        tree = pyast.parse(source, filename=path)
    except SyntaxError as exc:
        return [PL200.at(f"module does not parse: {exc.msg}", path,
                         exc.lineno or 0, (exc.offset or 1) - 1)]
    checker = _ModuleChecker(module, path)
    checker.visit(tree)
    return sorted(checker.diagnostics,
                  key=lambda d: (d.line, d.column, d.code))


def _python_files(root: str) -> Iterable[str]:
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in ("__pycache__", ".git", "egg-info")
                       and not d.endswith(".egg-info")]
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _module_name(path: str) -> Optional[str]:
    """Dotted module name from a file path, anchored at ``repro``."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[index:]
    tail[-1] = tail[-1][:-3]                      # strip .py
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def _layer_of(module: str) -> Optional[str]:
    """Longest _ALLOWED prefix governing this module, if any."""
    best = None
    for prefix in _ALLOWED:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best


def _within(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def import_violation(module: str,
                     target: str) -> Optional[tuple[Rule, str]]:
    """The (rule, message) importing ``target`` from ``module`` breaks,
    or None when the layering allows it.

    Only ``import``/``from`` statements are judged: no module of the
    package imports dynamically, and CI keeps it that way with a grep.
    """
    if not target.startswith("repro"):
        return None
    if (_within(module, _NO_FACADE)
            and _within(target, ("repro.system", "repro.cli"))):
        code = (PL201 if _within(module, ("repro.apps",))
                else PL202 if _within(module, ("repro.core",))
                else PL203)
        return code, (f"{module} must not import {target} "
                      "(the facade sits above every layer)")
    layer = _layer_of(module)
    if layer is None:
        return None
    if _within(target, _ALLOWED[layer]):
        return None
    if layer == "repro.pql" and _within(target, ("repro.storage",)):
        return PL210, (f"{module} imports {target}; the query layer "
                       "receives records (push feed), it does not pull "
                       "them from storage")
    if layer == "repro.obs":
        return PL208, (f"{module} imports {target}; repro.obs is a leaf "
                       "layer and may import nothing from the rest of "
                       "repro")
    if layer == "repro.faults":
        return PL209, (f"{module} imports {target}; repro.faults may "
                       "import only the kernel and obs (no "
                       "core/storage/nfs back-edges)")
    if layer == "repro.apps":
        return PL201, (f"{module} imports {target}; applications may "
                       "touch only the libpass/DPAPI surface "
                       "(repro.core)")
    if layer == "repro.core":
        return PL202, (f"{module} imports {target}; the core pipeline "
                       "may reach the kernel only via "
                       "kernel.kernel/process/vfs")
    return PL203, (f"{module} imports {target}, outside the {layer} "
                   f"allow-list {sorted(_ALLOWED[layer])}")


# -- the AST pass ------------------------------------------------------------


class _ModuleChecker(pyast.NodeVisitor):
    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.layer = _layer_of(module)
        self.diagnostics: list[Diagnostic] = []
        self._class: Optional[pyast.ClassDef] = None   # directly enclosing

    def _emit(self, registered, message: str, node: pyast.AST) -> None:
        self.diagnostics.append(registered.at(
            message, self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0)))

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: pyast.Import) -> None:
        for alias in node.names:
            self._check_import(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: pyast.ImportFrom) -> None:
        if node.module is None:          # "from . import x" (relative)
            self.generic_visit(node)
            return
        if node.level:                   # relative: resolve against self
            base = self.module.rsplit(".", node.level)[0]
            target = f"{base}.{node.module}"
        else:
            target = node.module
        if any(alias.name == "*" for alias in node.names):
            self._emit(PL207, f"wildcard import from {target!r}", node)
        self._check_import(target, node)
        self.generic_visit(node)

    def _check_import(self, target: str, node: pyast.AST) -> None:
        found = import_violation(self.module, target)
        if found is not None:
            registered, message = found
            self._emit(registered, message, node)

    # -- framing confinement -------------------------------------------------

    def visit_Attribute(self, node: pyast.Attribute) -> None:
        if (node.attr in _FRAMING_ATTRS
                and isinstance(node.value, pyast.Name)
                and node.value.id == "Attr"
                and not _within(self.module, _FRAMING_ALLOWED)):
            self._emit(PL205, f"Attr.{node.attr} referenced in "
                       f"{self.module}; transaction framing is confined "
                       "to the storage and NFS layers", node)
        self.generic_visit(node)

    def visit_Constant(self, node: pyast.Constant) -> None:
        if (isinstance(node.value, str) and node.value in _FRAMING_ATTRS
                and self.module.startswith("repro")
                and not _within(self.module, _FRAMING_ALLOWED)):
            self._emit(PL205, f"framing attribute {node.value!r} named in "
                       f"{self.module}; transaction framing is confined "
                       "to the storage and NFS layers", node)
        self.generic_visit(node)

    # -- record immutability -------------------------------------------------

    def visit_Call(self, node: pyast.Call) -> None:
        func = node.func
        if (isinstance(func, pyast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, pyast.Name)
                and func.value.id == "object"):
            target = node.args[0] if node.args else None
            if not (isinstance(target, pyast.Name)
                    and target.id == "self"):
                self._emit(PL206, "object.__setattr__ on a foreign object "
                           "bypasses frozen-record immutability", node)
        self.generic_visit(node)

    def visit_Assign(self, node: pyast.Assign) -> None:
        for target in node.targets:
            self._check_record_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: pyast.AugAssign) -> None:
        self._check_record_write(node.target, node)
        self.generic_visit(node)

    def _check_record_write(self, target: pyast.AST,
                            node: pyast.AST) -> None:
        if not (isinstance(target, pyast.Attribute)
                and target.attr in _RECORD_FIELDS
                and isinstance(target.value, pyast.Name)):
            return
        words = {word.removesuffix("s")
                 for word in target.value.id.lower().split("_")}
        if words & _RECORD_NAME_WORDS:
            self._emit(PL206, f"assignment to {target.value.id}."
                       f"{target.attr} mutates a provenance record "
                       "after finalization", node)

    # -- batches crossing a layer boundary (PL303) ---------------------------

    def visit_ClassDef(self, node: pyast.ClassDef) -> None:
        outer, self._class = self._class, node
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node) -> None:
        if node.name in _BATCH_ENTRY_POINTS:
            self._check_batch_entry(node)
        outer, self._class = self._class, None
        self.generic_visit(node)
        self._class = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_batch_entry(self, node) -> None:
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]
                  if a.arg not in ("self", "cls")]
        if not params:
            return
        batch = params[0]
        found: dict[int, tuple] = {}    # id(stmt) -> (stmt, message)

        def mutated(how: str, stmt: pyast.AST) -> None:
            found.setdefault(id(stmt), (
                stmt, f"batch argument {batch!r} mutated in {node.name}"
                      f"{how}; batches that crossed a layer boundary are "
                      "shared, not owned"))

        aliases = {batch}
        retained: list[tuple[str, pyast.AST]] = []
        for stmt in pyast.walk(node):
            if isinstance(stmt, pyast.Assign):
                value_is_batch = (isinstance(stmt.value, pyast.Name)
                                  and stmt.value.id in aliases)
                value_is_backing = (
                    isinstance(stmt.value, pyast.Attribute)
                    and isinstance(stmt.value.value, pyast.Name)
                    and stmt.value.value.id in aliases)
                for target in stmt.targets:
                    if isinstance(target, pyast.Name):
                        # A bare-name target is a rebind, never a
                        # mutation: ``b = batch`` adds an alias,
                        # ``batch = list(batch)`` (defensive copy)
                        # releases one.
                        if value_is_batch:
                            aliases.add(target.id)
                        else:
                            aliases.discard(target.id)
                    elif (_is_self_attr(target)
                          and (value_is_batch or value_is_backing)):
                        retained.append((target.attr, stmt))
                    elif _rooted_in(target, aliases):
                        mutated(" (assignment through the batch)", stmt)
            elif isinstance(stmt, (pyast.AugAssign, pyast.Delete)):
                targets = (stmt.targets if isinstance(stmt, pyast.Delete)
                           else [stmt.target])
                if any(_rooted_in(t, aliases) for t in targets):
                    mutated("", stmt)
            elif isinstance(stmt, pyast.Call):
                func = stmt.func
                if (isinstance(func, pyast.Attribute)
                        and func.attr in _MUTATORS
                        and _rooted_in(func.value, aliases)):
                    mutated(f" (.{func.attr}())", stmt)
        for attr, stmt in retained:
            if (self._class is not None
                    and _class_mutates_attr(self._class, attr)):
                found.setdefault(id(stmt), (
                    stmt, f"batch argument {batch!r} retained as "
                          f"self.{attr} in {node.name} and mutated "
                          "elsewhere in the class; copy the records "
                          "instead of adopting the caller's list"))
        for stmt, message in found.values():
            self._emit(PL303, message, stmt)


def _is_self_attr(node: pyast.AST) -> bool:
    return (isinstance(node, pyast.Attribute)
            and isinstance(node.value, pyast.Name)
            and node.value.id == "self")


def _rooted_in(node: pyast.AST, names: set) -> bool:
    """True when an attribute/subscript chain bottoms out at a name."""
    while isinstance(node, (pyast.Attribute, pyast.Subscript)):
        node = node.value
    return isinstance(node, pyast.Name) and node.id in names


def _class_mutates_attr(cls: pyast.ClassDef, attr: str) -> bool:
    """Does any method in the body of ``cls`` mutate ``self.<attr>``
    in place?"""
    for method in cls.body:
        if not isinstance(method, (pyast.FunctionDef,
                                   pyast.AsyncFunctionDef)):
            continue
        for node in pyast.walk(method):
            if isinstance(node, pyast.Call):
                func = node.func
                if (isinstance(func, pyast.Attribute)
                        and func.attr in _MUTATORS
                        and _is_self_attr(func.value)
                        and func.value.attr == attr):
                    return True
            elif isinstance(node, (pyast.Assign, pyast.AugAssign)):
                targets = (node.targets if isinstance(node, pyast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, pyast.Subscript)
                            and _is_self_attr(target.value)
                            and target.value.attr == attr):
                        return True
    return False
