"""Cost-based access-path planning for FROM bindings.

The evaluator's nested-loop join expands one binding at a time; the
planner decides, per binding, *where the candidate nodes come from*:

* ``member_scan``     -- walk the Provenance root member class (the
  pre-planner behaviour, and still correct for everything);
* ``equality_index``  -- a WHERE conjunct ``V.label = literal`` serves
  the binding from the secondary hash index on ``label``
  (:class:`repro.pql.indexes.EqualityIndex`; ``name`` rides the
  graph's own name index);
* ``range_index``     -- conjuncts ``V.label < n`` / ``>= n`` / ...
  serve it from the sorted range index, a lower and an upper bound on
  one label as one interval;
* ``traverse``        -- the binding is rooted in another variable
  (``F.input* as A``): candidates come from walking the graph, where
  the evaluator separately picks the ancestry memo or the live dicts
  per step.

Costs are actual row counts, not guesses: the member class length and
the index bucket / range width are both O(1) reads against maintained
structures, so "cost-based" here means comparing true candidate-set
sizes and taking the smallest.  Every choice is recorded as a
:class:`BindingPlan` (estimated vs actual rows, access detail), which
the engine hangs off the :class:`~repro.pql.engine.CompiledPlan` and
serves through EXPLAIN.

A query *shape* compiles its bindings' member classes, filter
templates (:func:`extract_filters`) and conjunct placement once; the
access choice is remade per execution (:func:`compile_access`): the
sizes it compares move with the literal -- a rare ``md5`` takes its
index, a ``name`` every file shares the scan -- and cost a few
dictionary reads and a bisect to get.

The planner also decides *where each WHERE conjunct runs*
(:func:`place_conjuncts`): every side-effect-free top-level AND
conjunct is evaluated exactly once per tuple, at the last binding that
completes its variables, so a predicate on the root of a closure is
checked once per root, not once per ancestor.  Conjuncts that can raise
on data (arithmetic, calls, subqueries), and whatever follows the first
of them, run after the join in their original order.

Soundness: only top-level AND conjuncts are indexable, only variables
bound exactly once may be pruned (the evaluator pre-filters), and an
index only *narrows the candidates* -- the conjuncts decide every row.
Comparisons are existential over multi-valued atoms: an equality bucket
or one-sided range holds exactly the nodes carrying a matching value;
the inequalities on one ``(variable, label)`` are intersected into one
interval answered by one two-sided bisect, plus the nodes holding
several numbers under the label (one may meet the lower bound, another
the upper).  Either way the candidates are a superset of the rows kept.
"""

from __future__ import annotations

from typing import Optional

from repro.pql import ast
from repro.pql.oem import OEMGraph

#: Operator flip for ``literal op V.label`` orientation.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_RANGE_OPS = frozenset(_FLIP)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def plain_label(step: ast.Step) -> Optional[str]:
    """The forward edge label of an unquantified plain step, if any."""
    if (isinstance(step.edge, ast.EdgeName) and not step.edge.reverse
            and step.quantifier == ast.Quantifier()):
        return step.edge.name
    return None


def _path_text(path: ast.Path) -> str:
    parts = [path.root]
    for step in path.steps:
        edge = step.edge
        if isinstance(edge, ast.EdgeName):
            parts.append(("^" if edge.reverse else "") + edge.name)
        else:
            parts.append("(...)")
    return ".".join(parts)


class BindingPlan:
    """One binding's chosen access path, with estimate and outcome.

    ``est_rows`` is the candidate-set size the planner compared on
    (None when the access path has no precomputed size, e.g. a
    traversal); ``actual_rows`` accumulates the rows the binding
    actually contributed across the join (candidates times enclosing
    tuples for pushed bindings) and ``kept_rows`` those that survived
    the WHERE conjuncts evaluated at this binding.  ``notes`` counts
    the traversal mechanisms steps under this binding used:
    ``ancestry_view`` (the ancestry memo) or ``dict_walk`` (the live
    dicts).
    """

    __slots__ = ("variable", "access", "detail", "est_rows",
                 "actual_rows", "kept_rows", "notes")

    def __init__(self, variable: str, access: str,
                 detail: Optional[dict] = None,
                 est_rows: Optional[int] = None):
        self.variable = variable
        self.access = access
        self.detail = detail or {}
        self.est_rows = est_rows
        self.actual_rows = 0
        self.kept_rows = 0
        self.notes: dict[str, int] = {}

    def as_dict(self) -> dict:
        out = {
            "variable": self.variable,
            "access": self.access,
            "est_rows": self.est_rows,
            "actual_rows": self.actual_rows,
            "kept_rows": self.kept_rows,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        if self.notes:
            out["steps"] = dict(self.notes)
        return out

    def __repr__(self) -> str:
        return (f"<BindingPlan {self.variable} via {self.access} "
                f"est={self.est_rows} actual={self.actual_rows}>")


def _conjuncts(where: Optional[ast.Expr]) -> tuple:
    """The top-level AND conjuncts of a WHERE clause, in order."""
    if where is None:
        return ()
    if isinstance(where, ast.BoolOp) and where.op == "and":
        return where.operands
    return (where,)


def _last_binding(expr: ast.Expr, last: dict, outer) -> Optional[int]:
    """Index of the last binding a side-effect-free expression (paths,
    literals, comparisons, and/or/not) waits for, 0 if it waits for
    none; None if it can raise on data -- arithmetic, calls,
    subqueries, a variable nothing binds."""
    if isinstance(expr, ast.PathValue):
        root = expr.path.root
        return last.get(root, 0 if root in outer else None)
    if isinstance(expr, ast.Compare):
        operands = (expr.left, expr.right)
    elif isinstance(expr, ast.BoolOp):
        operands = expr.operands
    elif isinstance(expr, ast.Not):
        operands = (expr.operand,)
    else:
        return 0 if isinstance(expr, ast.Literal) else None
    at = 0
    for operand in operands:
        index = _last_binding(operand, last, outer)
        if index is None:
            return None
        at = max(at, index)
    return at


def place_conjuncts(where: Optional[ast.Expr], bindings: list,
                    outer) -> tuple[list[list], list]:
    """Decide where each WHERE conjunct is evaluated.

    Returns ``(placed, residual)``.  ``placed[i]`` holds the conjuncts
    the join checks on each tuple binding ``i`` produces: each sits at
    the *last* binding that completes its variables (a shadowed variable
    is tested on its final value; outer, correlated variables count as
    bound).  Placement stops at the first conjunct that can raise on
    data or names a variable nothing binds: it and all after it are the
    ``residual``, run after the join in order, so such a conjunct sees
    exactly the tuples ``and``'s short-circuit showed it.
    """
    last = {binding.name: index for index, binding in enumerate(bindings)}
    placed: list[list] = [[] for _ in bindings]
    conjuncts = _conjuncts(where)
    for position, conjunct in enumerate(conjuncts):
        at = _last_binding(conjunct, last, outer) if bindings else None
        if at is None:
            return placed, list(conjuncts[position:])
        placed[at].append(conjunct)
    return placed, []


def extract_filters(where: Optional[ast.Expr]) -> dict:
    """Indexable predicate templates per variable from top-level AND
    conjuncts: ``{variable: [template, ...]}``.

    A template is ``("eq", label, literal)`` for ``V.label = literal``
    or ``("range", label, bounds)`` for numeric inequalities on one
    ``(variable, label)``, listed where the first stood, with one
    ``(op, literal)`` per inequality read as ``V.label op literal``;
    either operand order.  Literals stay AST nodes, resolved (and the
    bounds intersected) per execution.  OR branches, negations, and
    anything else stay un-extracted (their conjuncts still run).
    """
    filters: dict[str, list[tuple]] = {}
    slots: dict[tuple, int] = {}        # (variable, label) -> list index
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, ast.Compare):
            continue
        op = conjunct.op
        if op != "=" and op not in _RANGE_OPS:
            continue
        for lhs, rhs, flipped in ((conjunct.left, conjunct.right, False),
                                  (conjunct.right, conjunct.left, True)):
            if not (isinstance(lhs, ast.PathValue)
                    and len(lhs.path.steps) == 1
                    and isinstance(rhs, ast.Literal)):
                continue
            label = plain_label(lhs.path.steps[0])
            if label is None:
                continue
            variable = lhs.path.root
            # A literal's type category is part of the query shape.
            if op != "=" and not _is_number(rhs.value):
                break
            preds = filters.setdefault(variable, [])
            if op == "=":
                preds.append(("eq", label, rhs))
                break
            bound = (_FLIP[op] if flipped else op, rhs)
            slot = slots.setdefault((variable, label), len(preds))
            if slot == len(preds):
                preds.append(("range", label, (bound,)))
            else:
                preds[slot] = ("range", label, preds[slot][2] + (bound,))
            break
    return filters


def _interval(bounds, params: tuple) -> tuple:
    """The ``(low, low_inc, high, high_inc)`` interval (None =
    unbounded) one range template's bounds intersect to with this
    execution's literals; on an equal bound the exclusive side wins."""
    low = high = None
    low_inc = high_inc = False
    for op, literal in bounds:
        value = literal(params)
        if op in ("<", "<="):
            if high is None or (value, op == "<=") < (high, high_inc):
                high, high_inc = value, op == "<="
        elif low is None or (value, op == ">") > (low, not low_inc):
            low, low_inc = value, op == ">="
    return low, low_inc, high, high_inc


def member_of(path: ast.Path) -> Optional[str]:
    """The member name of a pure ``Provenance.member`` binding path."""
    if path.root != OEMGraph.ROOT or len(path.steps) != 1:
        return None
    return plain_label(path.steps[0])


def of_member(nodes: list, member: str) -> list:
    """``nodes`` restricted to the ``Provenance.member`` class."""
    if member == "node":
        return nodes
    return [node for node in nodes
            if isinstance(node.type, str) and node.type.lower() == member]


def compile_access(graph, catalog, binding: ast.Binding, preds: list,
                   value):
    """``choose(params) -> (candidates, plan)``: one binding's access
    path, chosen per execution from its filter templates (``value``
    maps a template literal to ``fn(params)``).

    ``candidates`` is the pruned node list when an index serves the
    binding, or None when the evaluator should expand the path itself
    (member scan / traversal).
    """
    path = binding.path
    name = binding.name
    member = member_of(path)
    if member is None:
        access = ("member_scan" if path.root == OEMGraph.ROOT
                  else "traverse")
        detail = {"path": _path_text(path)}
        return lambda params: (None, BindingPlan(name, access, detail))
    resolved = [(kind, label, value(arg) if kind == "eq"
                 else tuple((op, value(bound)) for op, bound in arg))
                for kind, label, arg in preds]

    def choose(params: tuple):
        best_est, best = graph.member_count(member), None
        for kind, label, arg in resolved:
            if kind == "eq":
                key = arg(params)
                est = catalog.equality_estimate(label, key)
            else:
                key = _interval(arg, params)
                est = catalog.range(label).estimate(*key)
            if est < best_est:
                best_est, best = est, (kind, label, key)
        if best is None:
            catalog.index_misses += 1
            return None, BindingPlan(name, "member_scan",
                                     {"member": member}, best_est)
        catalog.index_hits += 1
        kind, label, key = best
        if kind == "eq":
            detail = {"index": label, "op": "=", "value": key}
            nodes = catalog.equality_lookup(label, key)
        else:
            low, low_inc, high, high_inc = key
            detail = {"index": label, "op": "range",
                      "low": low, "low_inc": low_inc,
                      "high": high, "high_inc": high_inc}
            nodes = catalog.range(label).lookup(*key)
        detail["member"] = member
        plan = BindingPlan(name, "equality_index" if kind == "eq"
                           else "range_index", detail, best_est)
        # Range lookups repeat a node once per matching value; candidate
        # sets are node sets (nodes hash by identity; order preserved).
        return list(dict.fromkeys(of_member(nodes, member))), plan
    return choose
