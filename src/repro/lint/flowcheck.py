"""Dataflow rules over the whole-program call graph (PL3xx): passflow.

The PL2xx pass answers "who imports whom".  These rules answer what
imports cannot show: who *reaches* whom at run time, who touches state
its owning layer cannot change behind, and who writes state that every
machine, test and simulated kernel in the process shares:

* **PL301** -- layer discipline over calls and attribute chains, not
  just imports: a resolved reach into a layer outside the accessor's
  allow-list is a violation even when no import names that layer.
* **PL302** -- cross-layer private-state reach: touching another
  layer's ``_underscore`` attributes, a coupling the owning layer
  cannot change behind.
* **PL303** -- batch escape/mutation: ``submit_batch`` / ``append_batch``
  / ``apply_batch``-style entry points receive a :class:`RecordBatch`
  (or record sequence) that crossed a layer boundary; the callee must
  not mutate it, nor retain it and mutate it later.
* **PL304** -- shared mutable state: module-level mutable state
  written from function bodies, class-level shared state written from
  methods, and writes into storage-tier instances from outside the
  storage layer.  The first two are state every machine in the process
  shares; the sanctioned write paths are the tier's own entry points
  (``Waldo.drain*``, ``ProvenanceLog.append*``, recovery) behind the
  layer boundary, and module-scope constants or ``itertools.count``
  id mints elsewhere.
* **PL305** -- dynamic imports: ``importlib.import_module`` /
  ``__import__`` with a constant argument is folded into the import
  graph and judged by the PL2xx rules; a non-constant argument defeats
  static layer checking and is flagged.
* **PL306** -- an ``# lint: disable=...`` suppression that matched no
  diagnostic (stale suppressions must not linger once the underlying
  reach is fixed).

:func:`analyze_tree` is the whole-pass driver the CLI uses: PL2xx per
module, PL3xx over the program, ``# lint: disable=`` suppressions
honored (and audited) across both.
"""

from __future__ import annotations

import ast as pyast
from typing import Optional

from repro.lint import layercheck
from repro.lint.callgraph import (
    ModuleInfo,
    Program,
    Resolver,
    _resolve_dotted,
    build_program,
)
from repro.lint.diagnostics import ERROR, WARNING, Diagnostic, rule
from repro.lint.layercheck import _ALLOWED, _layer_of, _within

# -- rules -------------------------------------------------------------------

PL301 = rule(
    "PL301", ERROR, "cross-layer reach through an object",
    "A call or attribute chain lands in a layer outside the accessor's "
    "Figure-2 allow-list even though no import names that layer: the "
    "object was handed across a boundary and the module reaches "
    "through it.  The coupling is as real as an import and invisible "
    "to PL2xx.")
PL302 = rule(
    "PL302", ERROR, "cross-layer private-state reach",
    "A module touches another layer's _underscore attribute.  Private "
    "state is what the owning layer (Waldo, ProvenanceDatabase, "
    "OEMGraph) is free to change, so every cross-layer reach into it "
    "is a coupling that layer cannot change behind.  Reach it through "
    "a public method on the owning class instead.")
PL303 = rule(
    "PL303", ERROR, "batch mutated after crossing a layer boundary",
    "A submit_batch/append_batch/apply_batch-style entry point mutates "
    "its batch argument, or retains it and mutates it later.  Batches "
    "are shared, not transferred: the producer may still hold the "
    "object, and a subscriber may be handed the same one.  Copy "
    "before mutating, or build a new batch.")
PL304 = rule(
    "PL304", ERROR, "mutable state shared by every machine in the process",
    "Module-level mutable state written from a function body, "
    "class-level shared state written from a method, or storage-tier "
    "instance state written from outside the storage layer.  The first "
    "two are shared by every machine, test and simulated kernel in the "
    "process; the sanctioned storage write paths are the tier's own "
    "entry points "
    "(Waldo.drain*, ProvenanceLog.append*, recovery), and elsewhere "
    "module-scope constants or an itertools.count id mint.")
PL305 = rule(
    "PL305", WARNING, "dynamic import defeats static layer checking",
    "importlib.import_module/__import__ with a non-constant argument "
    "cannot be checked against the Figure-2 allow-lists.  Constant "
    "arguments are folded into the import graph and judged by the "
    "PL2xx rules; non-constant ones need a justification "
    "(# lint: disable=PL305).")
PL306 = rule(
    "PL306", WARNING, "unused lint suppression",
    "A '# lint: disable=...' comment matched no diagnostic on its "
    "line.  Stale suppressions hide future regressions; delete the "
    "comment once the violation it excused is gone.")

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

#: Spellings of the dynamic import entry points (PL305).
_DYNAMIC_IMPORTERS = frozenset({"importlib.import_module", "__import__"})


def _component(module: str) -> str:
    """The layer (or top-level component) a module belongs to, for the
    cross-layer tests: layered modules map to their _ALLOWED prefix,
    everything else (system, cli, query, crashlab, workloads...) to its
    first two dotted parts."""
    layer = _layer_of(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else parts[0]


# -- entry points ------------------------------------------------------------


def analyze_tree(root: str) -> list[Diagnostic]:
    """Run the whole pass over a tree: PL2xx per module, PL3xx over the
    program, suppressions applied and audited.  The CLI's engine."""
    program = build_program(root)
    return analyze_program(program)


def analyze_program(program: Program) -> list[Diagnostic]:
    """As :func:`analyze_tree`, over an already-built program."""
    diagnostics: list[Diagnostic] = []
    for name in sorted(program.modules):
        info = program.modules[name]
        diagnostics.extend(
            layercheck.check_source(info.source, name, info.path))
    for path, module, source in program.unparsed:
        diagnostics.extend(layercheck.check_source(source, module, path))
    diagnostics.extend(check_program(program))
    return _apply_suppressions(program, diagnostics)


def check_program(program: Program) -> list[Diagnostic]:
    """Just the PL3xx rules (no layercheck, no suppression filtering)."""
    diagnostics: list[Diagnostic] = []
    for name in sorted(program.modules):
        checker = _FlowChecker(program, program.modules[name])
        checker.run()
        diagnostics.extend(checker.diagnostics)
    return diagnostics


def _apply_suppressions(program: Program,
                        diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Honor ``# lint: disable=`` comments; report stale ones (PL306)."""
    by_path = {info.path: info.suppressions
               for info in program.modules.values()}
    used: set = set()
    kept: list[Diagnostic] = []
    for diagnostic in diagnostics:
        codes = by_path.get(diagnostic.source, {}).get(diagnostic.line)
        if codes and diagnostic.code in codes:
            used.add((diagnostic.source, diagnostic.line, diagnostic.code))
            continue
        kept.append(diagnostic)
    for path in sorted(by_path):
        for line in sorted(by_path[path]):
            for code in sorted(by_path[path][line]):
                if (path, line, code) not in used:
                    kept.append(PL306.at(
                        f"suppression of {code} matched no diagnostic",
                        path, line))
    kept.sort(key=lambda d: (d.source, d.line, d.column, d.code))
    return kept


# -- the flow pass -----------------------------------------------------------


class _FlowChecker(pyast.NodeVisitor):
    """One module's PL3xx pass over the shared program tables."""

    def __init__(self, program: Program, info: ModuleInfo):
        self.program = program
        self.info = info
        self.layer = _layer_of(info.name)
        self.component = _component(info.name)
        self.diagnostics: list[Diagnostic] = []
        self.resolver = Resolver(program, info)
        self._class = None              # enclosing ClassInfo, if any
        self._fn = None                 # enclosing FunctionInfo, if any
        self._locals: set = set()       # names bound in the enclosing fn
        self._globals_declared: set = set()
        self._judged: set = set()       # id() of Attribute nodes decided
        self._flagged: set = set()      # id() of nodes already diagnosed

    def run(self) -> None:
        for node in self.info.tree.body:
            self.visit(node)

    def _emit(self, registered, message: str, node: pyast.AST) -> None:
        if id(node) in self._flagged:
            return
        self._flagged.add(id(node))
        self.diagnostics.append(registered.at(
            message, self.info.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0)))

    # -- scope tracking ------------------------------------------------------

    def visit_ClassDef(self, node: pyast.ClassDef) -> None:
        outer = self._class
        self._class = self.info.classes.get(node.name)
        for item in node.body:
            self.visit(item)
        self._class = outer

    def visit_FunctionDef(self, node: pyast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: pyast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node) -> None:
        qual = (f"{self._class.qualname}.{node.name}" if self._class
                else f"{self.info.name}.{node.name}")
        outer = (self._fn, self.resolver, self._locals,
                 self._globals_declared)
        self._fn = self.program.functions.get(qual)
        self.resolver = Resolver(self.program, self.info, self._fn)
        self._locals = _assigned_names(node)
        self._globals_declared = set()
        if self._fn is not None and node.name in _BATCH_ENTRY_POINTS:
            self._check_batch_entry(node)
        for item in node.body:
            self.visit(item)
        (self._fn, self.resolver, self._locals,
         self._globals_declared) = outer

    def visit_Global(self, node: pyast.Global) -> None:
        self._globals_declared.update(node.names)
        written = [name for name in node.names if name in self._locals]
        if written:
            self._emit(PL304, "module-level state written via 'global "
                       f"{', '.join(written)}'; a module "
                       "keeps no rebindable globals (use an instance, "
                       "or an itertools.count id mint)", node)

    # -- reaches (PL301 / PL302) ---------------------------------------------

    def visit_Attribute(self, node: pyast.Attribute) -> None:
        self._judge_reach(node, is_call=False)
        self.generic_visit(node)

    def _judge_reach(self, node: pyast.Attribute, is_call: bool) -> None:
        if id(node) in self._judged:
            return
        self._judged.add(id(node))
        base, attr = node.value, node.attr
        if isinstance(base, pyast.Name) and base.id in ("self", "cls"):
            return
        resolved = self.resolver.resolve(base)
        owner = self.resolver.owner_module(resolved)
        if owner and owner != self.info.name and owner.startswith("repro"):
            self.program.record_edge(self.info.name, owner,
                                     "call" if is_call else "attr")
        private = attr.startswith("_") and not attr.startswith("__")
        if private and self._check_private_reach(node, attr, owner):
            return
        if (resolved is not None and resolved[0] in ("class", "instance")
                and owner is not None and owner.startswith("repro")
                and self.layer is not None
                and not _within(owner, _ALLOWED[self.layer])):
            self._emit(PL301, f"{self.info.name} reaches "
                       f"{owner}.{attr} through an object; {owner} is "
                       f"outside the {self.layer} allow-list "
                       f"{sorted(_ALLOWED[self.layer])}", node)

    def _check_private_reach(self, node: pyast.Attribute, attr: str,
                             owner: Optional[str]) -> bool:
        """PL302 when the private attr's owner is another layer."""
        if owner is not None:
            if (owner.startswith("repro")
                    and _component(owner) != self.component):
                self._emit(PL302, f"{self.info.name} reaches private "
                           f"state {attr!r} of {owner}; cross-layer "
                           "_underscore access is a coupling the "
                           "owner cannot change behind", node)
                return True
            return False
        owners = self.program.private_owners.get(attr)
        if not owners or attr in self.info.bindings:
            return False
        if all(_component(o) != self.component for o in owners):
            self._emit(PL302, f"{self.info.name} reaches private state "
                       f"{attr!r}, defined only in "
                       f"{', '.join(sorted(owners))}; cross-layer "
                       "_underscore access is a coupling the owner "
                       "cannot change behind", node)
            return True
        return False

    # -- calls: mutation receivers and dynamic imports -----------------------

    def visit_Call(self, node: pyast.Call) -> None:
        self._check_dynamic_import(node)
        func = node.func
        if isinstance(func, pyast.Attribute):
            self._judge_reach(func, is_call=True)
            if func.attr in _MUTATORS:
                self._check_state_write(func.value, node,
                                        verb=f".{func.attr}()")
        self.generic_visit(node)

    def _check_dynamic_import(self, node: pyast.Call) -> None:
        dotted = _resolve_dotted(node.func, self.info)
        if dotted is None and isinstance(node.func, pyast.Name):
            dotted = node.func.id
        if dotted not in _DYNAMIC_IMPORTERS:
            return
        target = node.args[0] if node.args else None
        if isinstance(target, pyast.Constant) and isinstance(
                target.value, str):
            # Constant argument: fold into the import graph and hold it
            # to the same PL2xx rules a static import faces.
            resolved = self.program.module_of(target.value) or target.value
            if resolved.startswith("repro"):
                self.program.record_edge(self.info.name, resolved,
                                         "dynamic-import")
            found = layercheck.import_violation(self.info.name,
                                               target.value)
            if found is not None:
                registered, message = found
                self._emit(registered, f"{message} (via dynamic import)",
                           node)
            return
        self._emit(PL305, f"{self.info.name} imports dynamically with a "
                   "non-constant argument; the target cannot be checked "
                   "against the layer rules", node)

    # -- writes (PL304) ------------------------------------------------------

    def visit_Assign(self, node: pyast.Assign) -> None:
        for target in node.targets:
            self._check_write_target(target, node)
            if isinstance(target, pyast.Name):
                self._check_global_write(target, node)
                self.resolver.assign(target.id, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: pyast.AugAssign) -> None:
        self._check_write_target(node.target, node)
        if isinstance(node.target, pyast.Name):
            self._check_global_write(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: pyast.AnnAssign) -> None:
        self._check_write_target(node.target, node)
        if isinstance(node.target, pyast.Name) and node.value is not None:
            self._check_global_write(node.target, node)
            self.resolver.assign(node.target.id, node.value)
        self.generic_visit(node)

    def _check_global_write(self, target: pyast.Name,
                            node: pyast.AST) -> None:
        # Rebinding a declared-global name: reported once, at the
        # ``global`` statement (visit_Global), not per assignment.
        return

    def _check_write_target(self, target: pyast.AST,
                            node: pyast.AST) -> None:
        """Assignments through attributes/subscripts: shared state?"""
        root = target
        via_subscript = False
        while isinstance(root, pyast.Subscript):
            root = root.value
            via_subscript = True
        if isinstance(root, pyast.Name):
            if via_subscript:
                self._check_mutable_global_write(root, node, "[...]=")
            return
        if isinstance(root, pyast.Attribute):
            self._check_state_write(root.value, node, verb=f".{root.attr}=",
                                    written_attr=root.attr)

    def _check_mutable_global_write(self, root: pyast.Name,
                                    node: pyast.AST, verb: str) -> None:
        name = root.id
        if (name in self.info.mutable_globals
                and name not in self._locals
                and self._fn is not None):
            self._emit(PL304, f"module-level mutable {name!r} written "
                       f"from a function body ({name}{verb}); every "
                       "machine in the process shares it -- "
                       "make it instance state or justify with "
                       "# lint: disable=PL304", node)

    def _check_state_write(self, base: pyast.AST, node: pyast.AST,
                           verb: str, written_attr: str = "") -> None:
        """A write (or in-place mutation) whose receiver is ``base``."""
        if self._fn is None:
            return                      # module top level: definitions
        if isinstance(base, pyast.Name):
            if base.id in ("self", "cls"):
                return
            self._check_mutable_global_write(base, node, verb)
        # Peel ``x.records.append`` style chains down to the owner.
        probe = base
        while isinstance(probe, pyast.Attribute):
            probe = probe.value
        if isinstance(probe, pyast.Name) and probe.id in ("self", "cls"):
            return
        resolved = self.resolver.resolve(base)
        if resolved is None:
            return
        kind, payload = resolved
        owner = self.resolver.owner_module(resolved)
        if kind == "class":
            self._emit(PL304, f"class-level state of {payload} written "
                       f"from a function body ({verb}); class "
                       "attributes are shared by every machine in the "
                       "process -- "
                       "use instance state or an itertools.count id "
                       "mint", node)
            return
        if (owner is not None and owner.startswith("repro.storage")
                and not self.info.name.startswith("repro.storage")):
            self._emit(PL304, f"{self.info.name} writes storage-tier "
                       f"state ({owner}{verb}); only the storage "
                       "layer's own entry points (Waldo.drain*, "
                       "ProvenanceLog.append*, recovery) may write it",
                       node)

    # -- PL303: batch entry points -------------------------------------------

    def _check_batch_entry(self, node) -> None:
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]
                  if a.arg not in ("self", "cls")]
        if not params:
            return
        batch = params[0]
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
                    elif (_is_self_attr_node(target)
                          and (value_is_batch or value_is_backing)):
                        retained.append((target.attr, stmt))
                    elif _rooted_in(target, aliases):
                        self._emit(PL303, f"batch argument {batch!r} "
                                   f"mutated in {node.name} (assignment "
                                   "through the batch); batches that "
                                   "crossed a layer boundary are "
                                   "shared, not owned", stmt)
            elif isinstance(stmt, (pyast.AugAssign, pyast.Delete)):
                targets = (stmt.targets if isinstance(stmt, pyast.Delete)
                           else [stmt.target])
                for target in targets:
                    if _rooted_in(target, aliases):
                        self._emit(PL303, f"batch argument {batch!r} "
                                   f"mutated in {node.name}; batches "
                                   "that crossed a layer boundary are "
                                   "shared, not owned", stmt)
            elif isinstance(stmt, pyast.Call):
                func = stmt.func
                if (isinstance(func, pyast.Attribute)
                        and func.attr in _MUTATORS
                        and _rooted_in(func.value, aliases)):
                    self._emit(PL303, f"batch argument {batch!r} mutated "
                               f"in {node.name} (.{func.attr}()); "
                               "batches that crossed a layer boundary "
                               "are shared, not owned", stmt)
        for attr, stmt in retained:
            if self._class is not None and _class_mutates_attr(
                    self.program, self._class, attr):
                self._emit(PL303, f"batch argument {batch!r} retained as "
                           f"self.{attr} in {node.name} and mutated "
                           "elsewhere in the class; copy the records "
                           "instead of adopting the caller's list", stmt)


def _assigned_names(fn) -> set:
    """Names bound inside a function: params plus assignment targets."""
    args = fn.args
    names = {a.arg for a in [*args.posonlyargs, *args.args,
                             *args.kwonlyargs]}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in pyast.walk(fn):
        if isinstance(node, pyast.Assign):
            for target in node.targets:
                names.update(_name_targets(target))
        elif isinstance(node, (pyast.AugAssign, pyast.AnnAssign,
                               pyast.For, pyast.AsyncFor)):
            names.update(_name_targets(node.target))
        elif isinstance(node, (pyast.With, pyast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_name_targets(item.optional_vars))
        elif isinstance(node, pyast.comprehension):
            names.update(_name_targets(node.target))
        elif isinstance(node, pyast.Global):
            # Declared global: assignments rebind the *module* name.
            names.difference_update(node.names)
    return names


def _name_targets(target: pyast.AST) -> set:
    if isinstance(target, pyast.Name):
        return {target.id}
    if isinstance(target, (pyast.Tuple, pyast.List)):
        found: set = set()
        for element in target.elts:
            found.update(_name_targets(element))
        return found
    return set()


def _is_self_attr_node(node: pyast.AST) -> bool:
    return (isinstance(node, pyast.Attribute)
            and isinstance(node.value, pyast.Name)
            and node.value.id == "self")


def _rooted_in(node: pyast.AST, names: set) -> bool:
    """True when an attribute/subscript chain bottoms out at a name."""
    while isinstance(node, (pyast.Attribute, pyast.Subscript)):
        node = node.value
    return isinstance(node, pyast.Name) and node.id in names


def _class_mutates_attr(program: Program, cls, attr: str) -> bool:
    """Does any method of ``cls`` mutate ``self.<attr>`` in place?"""
    for method in cls.methods.values():
        for node in pyast.walk(method.node):
            if isinstance(node, pyast.Call):
                func = node.func
                if (isinstance(func, pyast.Attribute)
                        and func.attr in _MUTATORS
                        and _is_self_attr_node(func.value)
                        and func.value.attr == attr):
                    return True
            elif isinstance(node, (pyast.Assign, pyast.AugAssign)):
                targets = (node.targets if isinstance(node, pyast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, pyast.Subscript)
                            and _is_self_attr_node(target.value)
                            and target.value.attr == attr):
                        return True
    return False
