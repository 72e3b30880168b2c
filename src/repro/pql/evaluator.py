"""PQL evaluator: path binding, existential predicates, aggregation.

Semantics follow Lorel where the paper does not override them:

* a FROM binding expands the environment by one variable per reachable
  node (nested-loop join over bindings, in order);
* path quantifiers compute bounded/unbounded closures over edge labels,
  ``^label`` traversing edges backwards;
* expressions evaluate to *value sets*; comparisons are existential
  ("some value on the left relates to some value on the right") --
  the natural reading for multi-valued, schema-less data;
* a bare path in WHERE is an existence test;
* aggregate calls (count/sum/avg/min/max) aggregate per result tuple,
  except when every select item is an aggregate, in which case they
  aggregate over the whole binding set (``select count(F) from ...``);
* subqueries (IN / EXISTS) see the enclosing tuple's variables
  (correlated subqueries).

:meth:`Evaluator.compile` turns a query into closures ``fn(env,
params)`` once, so a run dispatches no AST node per row: the n-th
string or number literal (:func:`repro.pql.lexer.parameterize` order)
reads slot n of ``params``, and each binding's index templates, the
conjunct placement and the select form are fixed; only the access path
is chosen per run (:mod:`repro.pql.planner`).  Errors are raised when
a closure meets them at run time, never at compile time.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import Counter
from typing import Iterable, Optional

from repro.core.errors import PQLError, PQLNameError, PQLTypeError
from repro.pql import ast
from repro.pql import planner as _planner
from repro.pql.indexes import ANCESTRY_LABELS
from repro.pql.oem import OEMGraph, OEMNode

#: Largest frontier the materialized ancestry view serves; bigger
#: frontiers walk the CSR arrays in one joint BFS instead (per-root
#: closure caching only pays off for few roots).
_VIEW_FRONTIER_MAX = 8


def _pos(node) -> tuple:
    """(line, column) of an AST node, or (None, None) when unknown."""
    line = getattr(node, "line", 0)
    return (line, getattr(node, "column", 0)) if line else (None, None)


def _failing(error, message: str, node):
    """A closure that raises ``error(message)`` at ``node`` when run."""
    def fail(*_):
        raise error(message, *_pos(node))
    return fail


_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

#: Scalar functions mapping each value of their argument's value set.
_SCALARS = {
    "len": lambda v: len(v) if isinstance(v, (str, bytes)) else None,
    "lower": lambda v: v.lower() if isinstance(v, str) else None,
    "upper": lambda v: v.upper() if isinstance(v, str) else None,
    "basename": lambda v: (v.rsplit("/", 1)[-1]
                           if isinstance(v, str) else None),
}


def slot_literals(node) -> list:
    """The string and number ``Literal`` nodes below ``node``, in
    parameter order: dataclass fields in order, which is token order."""
    if type(node) is ast.Literal:
        return [] if isinstance(node.value, bool) else [node]
    parts = node if isinstance(node, tuple) else [
        getattr(node, name)
        for name in getattr(node, "__dataclass_fields__", ())]
    return [literal for part in parts for literal in slot_literals(part)]


class Evaluator:
    """Compiles and runs parsed queries against one OEM graph.

    With a :class:`~repro.pql.indexes.IndexCatalog` attached
    (``catalog``), FROM bindings go through the cost-based planner
    (index vs scan per binding, WHERE conjuncts checked at the binding
    that completes them) and closure steps pick the materialized
    ancestry view or the CSR arrays over the live dicts; without one,
    evaluation is the pre-planner naive path (member scans plus the
    name-only pushdown, WHERE after the join) -- the ground truth the
    planned path is property-tested against.  Both compile the same
    closures; they differ only in access paths and placement.
    """

    def __init__(self, graph: OEMGraph, catalog=None):
        self.graph = graph
        self.catalog = catalog
        #: The EXPLAIN step counters of the recorded binding expanding
        #: now (set by a top-level run, None otherwise).
        self._notes: Optional[dict] = None

    def execute(self, query: ast.Query) -> list:
        """Run a query with its own literals; returns a list of rows.

        Single-item selects return a flat list of values; multi-item
        selects return tuples.  Node values come back as
        :class:`OEMNode`.
        """
        return self.compile(query)(tuple(
            literal.value for literal in slot_literals(query)))

    def compile(self, query: ast.Query):
        """``run(params, log=None) -> rows`` for ``query``'s shape.

        ``log``, when a list, receives the top-level bindings'
        :class:`~repro.pql.planner.BindingPlan` entries of that run."""
        slots = {id(literal): slot
                 for slot, literal in enumerate(slot_literals(query))}
        program = self._query(query, slots, frozenset())
        return lambda params, log=None: program({}, params, log)

    # -- queries ---------------------------------------------------------------

    def _query(self, query: ast.Query, slots: dict, scope: frozenset):
        """``fn(env, params, log) -> rows`` for one (sub)query seeing
        the variables in ``scope``."""
        bindings = list(query.bindings)
        inner = scope.union(binding.name for binding in bindings)
        steps, residual = self._join(query.where, bindings, slots, scope,
                                     inner)
        residual = [self._truth_fn(test, slots, inner) for test in residual]
        items = [item.expr for item in query.select]
        distinct, limit, order = query.distinct, query.limit, query.order
        if (len(items) == 1 and type(items[0]) is ast.PathValue
                and not items[0].path.steps and bindings
                and items[0].path.root == bindings[-1].name
                and not residual and limit is None and order is None):
            # ``select V`` of the last binding with nothing after the
            # join: the join hands its nodes straight to the rows.  A
            # graph holds one node per ref, so nodes dedup by identity.
            def streamed(env, params, log):
                rows: list = []
                self._expand(steps, [env], params, log, rows.append)
                return list(dict.fromkeys(rows)) if distinct else rows
            return streamed

        def tuples(env, params, log):
            envs = self._expand(steps, [env], params, log)
            return [env for env in envs
                    if all(test(env, params) for test in residual)]

        if items and all(type(expr) is ast.Call
                         and expr.name in _AGGREGATES for expr in items):
            totals = [self._aggregate_fn(expr, slots, inner)
                      for expr in items]

            def aggregate(env, params, log):
                envs = tuples(env, params, log)
                row = tuple(total(envs, params) for total in totals)
                return [row[0]] if len(row) == 1 else [row]
            return aggregate
        cells = [self._value_fn(expr, slots, inner) for expr in items]
        if order is not None:
            order_values = self._value_fn(order.expr, slots, inner)

        def run(env, params, log):
            envs = tuples(env, params, log)
            rows: list = []
            if limit == 0:
                return rows
            seen: set = set()
            keyed: list[tuple] = []
            for env in envs:
                if order is not None:
                    keys = order_values(env, params)
                    # Empty sorts last (ascending).
                    sort_key = _sort_token(keys[0]) if keys else (3, 0)
                if len(cells) == 1:
                    values = cells[0](env, params)
                else:
                    values = _cartesian([cell(env, params)
                                         for cell in cells])
                for value in values:
                    if distinct:
                        key = _dedup_key(value)
                        if key in seen:
                            continue
                        seen.add(key)
                    if order is not None:
                        keyed.append((sort_key, len(keyed), value))
                        continue
                    rows.append(value)
                    if limit is not None and len(rows) >= limit:
                        return rows
            if order is not None:
                # Python's sort is stable even with reverse=True, so ties
                # keep their discovery order.
                keyed.sort(key=operator.itemgetter(0),
                           reverse=order.descending)
                rows = [value for _, _, value in keyed][:limit]
            return rows
        return run

    # -- FROM -----------------------------------------------------------------

    def _join(self, where, bindings: list, slots: dict, scope: frozenset,
              inner: frozenset) -> tuple[list, list]:
        """The join's steps -- ``(name, access, expand, checks)`` per
        binding -- and the WHERE conjuncts left for after it: with a
        catalog the join filters as it binds (planner-placed conjuncts),
        without one the whole clause is left."""
        # A variable bound more than once is rebound (shadowed); pruning
        # its earlier binding by the WHERE literal would be unsound.
        counts = Counter(binding.name for binding in bindings)
        filters = {name: preds for name, preds
                   in _planner.extract_filters(where).items()
                   if counts.get(name) == 1}
        catalog = self.catalog
        if catalog is not None:
            placed, residual = _planner.place_conjuncts(where, bindings,
                                                        scope)
        else:
            placed = [()] * len(bindings)
            residual = [] if where is None else [where]

        def getter(literal):
            slot = slots.get(id(literal))
            if slot is None:
                return lambda params, value=literal.value: value
            return operator.itemgetter(slot)

        steps = []
        for binding, checks in zip(bindings, placed):
            preds = filters.get(binding.name, ())
            if catalog is not None:
                access = _planner.compile_access(self.graph, catalog,
                                                 binding, preds, getter)
            else:
                access = self._name_pushdown(binding, preds, getter)
            steps.append((binding.name, access, self._nodes(binding.path),
                          [self._truth_fn(test, slots, inner)
                           for test in checks]))
        return steps, residual

    def _expand(self, steps: list, envs: list, params: tuple,
                log: Optional[list], emit=None) -> list:
        """Run the nested-loop join over ``steps`` from ``envs``; with
        ``emit``, the last step's surviving nodes go to it instead of
        into new tuples."""
        last = steps[-1] if steps else None
        for step in steps:
            name, access, expand, checks = step
            nodes, plan = access(params) if access else (None, None)
            if log is not None and plan is not None:
                log.append(plan)
                self._notes = plan.notes
            streaming = emit is not None and step is last
            expanded: list = []
            kept = 0
            for env in envs:
                found = nodes if nodes is not None else expand(env)
                if plan is not None:
                    plan.actual_rows += len(found)
                child = dict(env)
                for node in found:
                    child[name] = node
                    for check in checks:
                        if not check(child, params):
                            break
                    else:
                        kept += 1
                        if streaming:
                            emit(node)
                        else:
                            expanded.append(dict(child))
            if plan is not None:
                plan.kept_rows = kept
            envs = expanded
            self._notes = None
        return envs

    def _name_pushdown(self, binding: ast.Binding, preds, getter):
        """Selection pushdown without a catalog: ``Provenance.member as
        V`` with a top-level ``V.name = "literal"`` conjunct takes the
        graph's name index instead of the whole member class.  The
        WHERE clause still runs afterwards, so this only prunes."""
        member = _planner.member_of(binding.path)
        names = [literal for kind, label, literal in preds
                 if kind == "eq" and label == "name"
                 and isinstance(literal.value, str)]
        if member is None or not names:
            return None
        value, named = getter(names[-1]), self.graph.named
        return lambda params: (
            _planner.of_member(named(value(params)), member), None)

    def _nodes(self, path: ast.Path, stop: Optional[int] = None):
        """``fn(env) -> nodes`` reachable over a path (its first
        ``stop`` steps when given)."""
        steps = path.steps[:stop]
        if path.root == OEMGraph.ROOT:
            if not steps:
                return _failing(PQLError, "'Provenance' needs a member, "
                                "e.g. Provenance.file", path)
            member = _planner.plain_label(steps[0])
            if member is None:
                return _failing(PQLError, "the first step after "
                                "'Provenance' must be a plain member "
                                "name", path)
            members = self.graph.members

            def source(env):
                return members(member)
            steps = steps[1:]
        else:
            root = path.root
            unbound = _failing(PQLNameError, f"unbound variable {root!r}",
                               path)

            def source(env):
                return [env[root]] if root in env else unbound()
        walks = [self._step(step) for step in steps]

        def nodes(env):
            frontier = source(env)
            for walk in walks:
                frontier = walk(frontier)
            return frontier
        return nodes if walks else source

    def _step(self, step: ast.Step):
        """``fn(frontier) -> nodes``: one edge step with its quantifier.

        Single hops always walk the live dicts (cheapest).  Multi-hop
        and unbounded closures consult the index catalogue when one is
        attached: ancestry-label closures from small frontiers come
        from the materialized view, other closures run over the CSR
        arrays when the snapshot is fresh, and everything falls back to
        the dict walk mid-burst.  All three produce the same node set.
        """
        minimum = step.quantifier.minimum
        maximum = step.quantifier.maximum
        follow = _follower(step.edge)
        if minimum == maximum == 1:
            # Each target once, in discovery order (nodes hash by
            # identity).
            return lambda frontier: list(dict.fromkeys(
                target for node in frontier for target in follow(node)))
        fast = self._fast_step(step) if self.catalog is not None else None

        def walk(frontier):
            if fast is not None and frontier:
                found = fast(frontier)
                if found is not None:
                    return found
            # BFS over repetition depth; visited prevents cycles from
            # looping (the provenance graph is a DAG, but ^edges make
            # walks revisit).  Nodes hash by identity.
            found: dict = {}
            visited: set = set()
            layer, depth = list(frontier), 0
            while layer:
                if depth >= minimum:
                    found.update(dict.fromkeys(layer))
                if maximum is not None and depth >= maximum:
                    break
                next_layer: list[OEMNode] = []
                for node in layer:
                    for target in follow(node):
                        if target not in visited:
                            visited.add(target)
                            next_layer.append(target)
                layer, depth = next_layer, depth + 1
            return list(found)
        return walk

    def _fast_step(self, step: ast.Step):
        """``fn(frontier) -> nodes or None`` serving a closure step from
        the ancestry view or the CSR snapshot (None: walk the live
        dicts), or None for a step neither can serve."""
        minimum = step.quantifier.minimum
        maximum = step.quantifier.maximum
        edges = _flat_edges(step.edge)
        if (maximum is not None and maximum <= 1) or not edges:
            return None
        catalog = self.catalog
        labels = {name for name, _ in edges}
        directions = {reverse for _, reverse in edges}
        viewable = (maximum is None and minimum <= 1
                    and len(directions) == 1 and labels <= ANCESTRY_LABELS)
        key, reverse = tuple(sorted(labels)), next(iter(directions))

        def fast(frontier):
            notes = self._notes
            if viewable and len(frontier) <= _VIEW_FRONTIER_MAX:
                # Materialized ancestry closure, cached per root.
                _note(notes, "ancestry_view")
                # Nodes hash by identity: each once, in discovery order.
                found = dict.fromkeys(frontier) if minimum == 0 else {}
                for node in frontier:
                    found.update(dict.fromkeys(
                        catalog.view.closure(node, key, reverse)))
                return list(found)
            csr = catalog.csr()
            if csr is None:
                # Mid-burst: the snapshot is stale, walk the live dicts.
                _note(notes, "dict_walk")
                return None
            node_id = csr.node_id
            roots = [node_id.get(id(node)) for node in frontier]
            if None in roots:
                return None
            _note(notes, "csr_bfs")
            nodes = csr.nodes
            return [nodes[index]
                    for index in csr.bfs(roots, edges, minimum, maximum)]
        return fast

    # -- expressions ----------------------------------------------------------

    def _value_fn(self, expr: ast.Expr, slots: dict, scope: frozenset):
        """``fn(env, params) -> list``: the expression's value set."""
        kind = type(expr)
        if kind is ast.Literal:
            slot = slots.get(id(expr))
            if slot is None:
                return lambda env, params, value=expr.value: [value]
            return lambda env, params: [params[slot]]
        if kind is ast.PathValue:
            return self._path_value(expr.path)
        if kind in (ast.Compare, ast.BoolOp, ast.Not, ast.InQuery,
                    ast.ExistsQuery):
            truth = self._truth_fn(expr, slots, scope)
            return lambda env, params: [truth(env, params)]
        if kind is ast.Arith:
            left = self._value_fn(expr.left, slots, scope)
            right = self._value_fn(expr.right, slots, scope)
            return functools.partial(_arith_values, expr.op, left, right)
        if kind is ast.Neg:
            operand = self._value_fn(expr.operand, slots, scope)
            return lambda env, params: [
                -value for value in operand(env, params) if _is_number(value)]
        if kind is not ast.Call:
            return _failing(PQLError, f"unhandled expression node: "
                            f"{expr!r}", expr)
        name = expr.name
        if name not in _SCALARS and name not in _AGGREGATES:
            return _failing(PQLNameError, f"unknown function {name!r}",
                            expr)
        if len(expr.args) != 1:
            return _failing(PQLError, f"{name}() takes one argument"
                            if name in _SCALARS else f"{name}() takes "
                            "exactly one argument", expr)
        arg = self._value_fn(expr.args[0], slots, scope)
        if name in _AGGREGATES:
            return lambda env, params: [_aggregate(name, arg(env, params))]
        scalar = _SCALARS[name]
        return lambda env, params: [out for value in arg(env, params)
                                    if (out := scalar(value)) is not None]

    def _path_value(self, path: ast.Path):
        """A path in expression position: nodes *and* atoms it reaches.

        All but the last step must traverse edges; the last step also
        collects atom values of its label from the frontier.
        """
        if not path.steps:
            root = path.root
            unbound = _failing(PQLNameError, f"unbound variable {root!r}",
                               path)
            return lambda env, params: [env[root] if root in env
                                        else unbound()]
        label = _planner.plain_label(path.steps[-1])
        walk = self._step(path.steps[-1])
        nodes = self._nodes(path, -1)
        if label is None:
            return lambda env, params: walk(nodes(env))

        def values(env, params):
            frontier = nodes(env)
            out = [value for node in frontier
                   for value in node.atoms.get(label, ())]
            if len(frontier) != 1 or label in frontier[0].edges:
                out += walk(frontier)           # edges under the label
            return out
        return values

    def _truth_fn(self, expr: ast.Expr, slots: dict, scope: frozenset):
        """``fn(env, params) -> bool``: the expression as a predicate."""
        kind = type(expr)
        if kind is ast.BoolOp:
            tests = [self._truth_fn(operand, slots, scope)
                     for operand in expr.operands]
            if expr.op == "and":
                return lambda env, params: all(test(env, params)
                                               for test in tests)
            return lambda env, params: any(test(env, params)
                                           for test in tests)
        if kind is ast.Not:
            test = self._truth_fn(expr.operand, slots, scope)
            return lambda env, params: not test(env, params)
        if kind is ast.Compare:
            left = self._value_fn(expr.left, slots, scope)
            right = self._value_fn(expr.right, slots, scope)
            pair = (_like if expr.op == "like" else
                    functools.partial(_compare_pair, _ORDERING[expr.op]))
            return lambda env, params: _some(pair, left(env, params),
                                             right(env, params))
        if kind is ast.InQuery:
            needle = self._value_fn(expr.needle, slots, scope)
            query = self._query(expr.query, slots, scope)

            def contains(env, params):
                needles = needle(env, params)
                hay_keys = {_dedup_key(value)
                            for value in query(env, params, None)}
                return any(_dedup_key(value) in hay_keys
                           for value in needles)
            return contains
        if kind is ast.ExistsQuery:
            query = self._query(expr.query, slots, scope)
            return lambda env, params: bool(query(env, params, None))
        values = self._value_fn(expr, slots, scope)
        if kind is ast.PathValue:
            return lambda env, params: bool(values(env, params))
        return lambda env, params: any(map(bool, values(env, params)))

    def _aggregate_fn(self, expr: ast.Call, slots: dict, scope):
        """``fn(envs, params)``: aggregate across the whole binding set
        (aggregate-only select)."""
        if len(expr.args) != 1:
            return _failing(PQLError, f"{expr.name}() takes exactly one "
                            "argument", expr)
        arg = self._value_fn(expr.args[0], slots, scope)

        def total(envs, params):
            values: dict = {}
            for env in envs:
                for value in arg(env, params):
                    values.setdefault(_dedup_key(value), value)
            return _aggregate(expr.name, list(values.values()))
        return total


# -- helpers ------------------------------------------------------------------------------


def _note(notes: Optional[dict], mechanism: str) -> None:
    """Count one traversal mechanism in an EXPLAIN binding's notes."""
    if notes is not None:
        notes[mechanism] = notes.get(mechanism, 0) + 1


def _some(pair, lefts: list, rights: list) -> bool:
    """Existential comparison: some left value relates to some right."""
    for lhs in lefts:
        for rhs in rights:
            if pair(lhs, rhs):
                return True
    return False


def _arith_values(op: str, left, right, env, params) -> list:
    """Arithmetic over every pair of numbers of the operands' value
    sets (the right operand evaluated once, if the left has values)."""
    out: list = []
    rights = None
    for lhs in left(env, params):
        if rights is None:
            rights = right(env, params)
        for rhs in rights:
            if _is_number(lhs) and _is_number(rhs):
                out.append(_apply_arith(op, lhs, rhs))
    return out


def _follower(edge: ast.EdgeExpr):
    """``fn(node) -> nodes`` one hop over an edge expression."""
    if isinstance(edge, ast.EdgeAlt):
        options = [_follower(option) for option in edge.options]
        return lambda node: [target for follow in options
                             for target in follow(node)]
    name = edge.name
    if edge.reverse:
        return lambda node: node.redges.get(name, ())
    return lambda node: node.edges.get(name, ())


def _flat_edges(edge: ast.EdgeExpr) -> list[tuple[str, bool]]:
    """Flatten an edge expression to [(label, reverse), ...]."""
    if isinstance(edge, ast.EdgeAlt):
        return [flat for option in edge.options
                for flat in _flat_edges(option)]
    return [(edge.name, edge.reverse)]


def _sort_token(value) -> tuple:
    """Totally ordered key over heterogeneous values: numbers, then
    strings, then bytes, then everything else by repr."""
    if _is_number(value):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, bytes):
        return (2, value)
    if isinstance(value, OEMNode):
        return (4, value.ref)
    return (5, repr(value))


def _dedup_key(value):
    if isinstance(value, OEMNode):
        return ("node", value.ref)
    if isinstance(value, tuple):
        return tuple(_dedup_key(item) for item in value)
    return (type(value).__name__, value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _apply_arith(op: str, lhs, rhs):
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise PQLTypeError("division by zero")
        return lhs / rhs
    if op == "%":
        if rhs == 0:
            raise PQLTypeError("modulo by zero")
        return lhs % rhs
    raise PQLError(f"unknown arithmetic operator {op!r}")


def _like(text, pattern) -> bool:
    """SQL-LIKE matching: ``%`` any run, ``_`` one character."""
    if not isinstance(text, str) or not isinstance(pattern, str):
        return False
    return _like_regex(pattern).fullmatch(text) is not None


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern":
    return re.compile("".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    ))


#: Comparison operator -> its test on two comparable values.
_ORDERING = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
             "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: Classes whose values compare with values of the same class.
_PLAIN = frozenset({int, float, str, bytes, bool})


def _compare_pair(test, lhs, rhs) -> bool:
    cls = lhs.__class__
    if cls is rhs.__class__ and cls in _PLAIN:
        return test(lhs, rhs)
    if isinstance(lhs, OEMNode) or isinstance(rhs, OEMNode):
        same = (isinstance(lhs, OEMNode) and isinstance(rhs, OEMNode)
                and lhs.ref == rhs.ref)
        return (same if test is operator.eq
                else not same if test is operator.ne else False)
    comparable = (
        (_is_number(lhs) and _is_number(rhs))
        or (isinstance(lhs, str) and isinstance(rhs, str))
        or (isinstance(lhs, bytes) and isinstance(rhs, bytes))
        or (isinstance(lhs, bool) and isinstance(rhs, bool))
    )
    return comparable and test(lhs, rhs)


def _aggregate(name: str, values: list):
    if name == "count":
        return len(values)
    numbers = [value for value in values if _is_number(value)]
    if name == "sum":
        return sum(numbers)
    if name == "avg":
        return sum(numbers) / len(numbers) if numbers else 0.0
    if name == "min":
        return min(numbers) if numbers else None
    if name == "max":
        return max(numbers) if numbers else None
    raise PQLError(f"unknown aggregate {name!r}")


def _cartesian(cells: list[list]) -> Iterable[tuple]:
    if any(not cell for cell in cells):
        # A tuple with an empty cell contributes nothing (Lorel drops it).
        return
    out = [()]
    for cell in cells:
        out = [row + (value,) for row in out for value in cell]
    yield from out
