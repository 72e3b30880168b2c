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
"""

from __future__ import annotations

import functools
import re
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

#: Environment: variable name -> OEMNode.
Env = dict

#: The quantifier of a plain step (exactly one hop).
_ONCE = ast.Quantifier()


def _pos(node) -> tuple:
    """(line, column) of an AST node, or (None, None) when unknown."""
    line = getattr(node, "line", 0)
    return (line, getattr(node, "column", 0)) if line else (None, None)

_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

#: Scalar functions mapping each value of their argument's value set.
_SCALARS = {
    "len": lambda v: len(v) if isinstance(v, (str, bytes)) else None,
    "lower": lambda v: v.lower() if isinstance(v, str) else None,
    "upper": lambda v: v.upper() if isinstance(v, str) else None,
    "basename": lambda v: (v.rsplit("/", 1)[-1]
                           if isinstance(v, str) else None),
}


class Evaluator:
    """Executes parsed queries against one OEM graph.

    With a :class:`~repro.pql.indexes.IndexCatalog` attached
    (``catalog``), FROM bindings go through the cost-based planner
    (index vs scan per binding, WHERE conjuncts checked at the binding
    that completes them) and closure steps pick the materialized
    ancestry view or the CSR arrays over the live dicts; without one,
    evaluation is the pre-planner naive path (member scans plus the
    name-only pushdown) -- the ground truth the planned path is
    property-tested against.
    """

    def __init__(self, graph: OEMGraph, catalog=None):
        self.graph = graph
        self.catalog = catalog
        #: When set (by the engine, around a top-level execute), the
        #: planner appends one BindingPlan per top-level binding here.
        self.plan_log: Optional[list] = None
        self._depth = 0
        self._notes: Optional[dict] = None

    # -- entry point -------------------------------------------------------------------

    def execute(self, query: ast.Query,
                outer: Optional[Env] = None) -> list:
        """Run a query; returns a list of rows.

        Single-item selects return a flat list of values; multi-item
        selects return tuples.  Node values come back as
        :class:`OEMNode`.
        """
        self._depth += 1
        try:
            return self._execute(query, outer)
        finally:
            self._depth -= 1

    def _execute(self, query: ast.Query,
                 outer: Optional[Env] = None) -> list:
        envs, residual = self._expand_bindings(query.bindings, outer or {},
                                               query.where)
        if residual:
            envs = [env for env in envs
                    if all(self._truth(conjunct, env)
                           for conjunct in residual)]

        if query.select and all(isinstance(item.expr, ast.Call)
                                and item.expr.name in _AGGREGATES
                                for item in query.select):
            row = tuple(self._aggregate_over(item.expr, envs)
                        for item in query.select)
            return [row[0]] if len(row) == 1 else [row]

        rows: list = []
        if query.limit == 0:
            return rows
        # ``select V``: the row is the bound node itself.
        bare = None
        if len(query.select) == 1:
            expr = query.select[0].expr
            if isinstance(expr, ast.PathValue) and not expr.path.steps:
                bare = expr.path.root
        seen: set = set()
        keyed: list[tuple] = []
        for env in envs:
            sort_key = (self._order_key(query.order, env)
                        if query.order is not None else None)
            if bare is not None:
                if bare not in env:
                    raise PQLNameError(f"unbound variable {bare!r}",
                                       *_pos(expr.path))
                values = (env[bare],)
            else:
                values = [row[0] if len(row) == 1 else row
                          for row in _cartesian(
                              [self._select_values(item.expr, env)
                               for item in query.select])]
            for value in values:
                key = _dedup_key(value)
                if query.distinct and key in seen:
                    continue
                seen.add(key)
                if query.order is not None:
                    keyed.append((sort_key, len(keyed), value))
                    continue
                rows.append(value)
                if query.limit is not None and len(rows) >= query.limit:
                    return rows
        if query.order is not None:
            # Python's sort is stable even with reverse=True, so ties
            # keep their discovery order.
            keyed.sort(key=lambda item: item[0],
                       reverse=query.order.descending)
            rows = [value for _, _, value in keyed]
            if query.limit is not None:
                rows = rows[:query.limit]
        return rows

    def _order_key(self, order: ast.OrderBy, env: Env) -> tuple:
        """A type-ranked, totally ordered sort key for one tuple."""
        values = self._values(order.expr, env)
        if not values:
            return (3, 0)                      # empty sorts last (asc)
        return _sort_token(values[0])

    # -- FROM ---------------------------------------------------------------------------

    def _expand_bindings(self, bindings: Iterable[ast.Binding],
                         outer: Env,
                         where: Optional[ast.Expr] = None
                         ) -> tuple[list[Env], list]:
        """The nested-loop join: the joined tuples plus the WHERE
        conjuncts still to run on them -- with a catalog the join
        filters as it binds (planner-placed conjuncts), without one the
        whole clause comes back."""
        bindings = list(bindings)
        # A variable bound more than once is rebound (shadowed); pruning
        # its earlier binding by the WHERE literal would be unsound.
        counts: dict = {}
        for binding in bindings:
            counts[binding.name] = counts.get(binding.name, 0) + 1
        catalog = self.catalog
        if catalog is not None:
            filters = {name: preds for name, preds
                       in _planner.extract_filters(where).items()
                       if counts.get(name, 0) == 1}
            placed, residual = _planner.place_conjuncts(where, bindings,
                                                        outer)
        else:
            name_filters = {name: literal for name, literal
                            in _equality_name_filters(where).items()
                            if counts.get(name, 0) == 1}
            placed = [()] * len(bindings)
            residual = [] if where is None else [where]
        record = self.plan_log is not None and self._depth == 1
        truth = self._truth
        envs = [dict(outer)]
        for index, binding in enumerate(bindings):
            plan = None
            if catalog is not None:
                pushdown, plan = _planner.plan_binding(self, binding,
                                                       filters)
                if record:
                    self.plan_log.append(plan)
                    self._notes = plan.notes
            else:
                pushdown = self._pushdown_candidates(binding, name_filters)
            checks = placed[index]
            expanded: list[Env] = []
            for env in envs:
                nodes = (pushdown if pushdown is not None
                         else self._path_nodes(binding.path, env))
                if plan is not None:
                    plan.actual_rows += len(nodes)
                for node in nodes:
                    child = dict(env)
                    child[binding.name] = node
                    for conjunct in checks:
                        if not truth(conjunct, child):
                            break
                    else:
                        expanded.append(child)
            if plan is not None:
                plan.kept_rows = len(expanded)
            envs = expanded
            self._notes = None
        return envs, residual

    def _pushdown_candidates(self, binding: ast.Binding,
                             name_filters: dict) -> Optional[list[OEMNode]]:
        """Selection pushdown: ``Provenance.member as V`` with a
        top-level ``V.name = "literal"`` conjunct uses the name index
        instead of scanning the whole member class.  The WHERE clause
        still runs afterwards, so this is purely a pruning step."""
        literal = name_filters.get(binding.name)
        if literal is None:
            return None
        path = binding.path
        if path.root != OEMGraph.ROOT or len(path.steps) != 1:
            return None
        member = _single_forward_label(path.steps[0])
        if member is None or path.steps[0].quantifier != ast.Quantifier():
            return None
        if member == "node":
            return self.graph.named(literal)
        return [node for node in self.graph.named(literal)
                if isinstance(node.type, str)
                and node.type.lower() == member]

    def _path_nodes(self, path: ast.Path, env: Env,
                    stop: Optional[int] = None) -> list[OEMNode]:
        """Nodes reachable over a FROM path (its first ``stop`` steps
        when given)."""
        steps = path.steps
        if stop is None:
            stop = len(steps)
        start = 0
        if path.root == OEMGraph.ROOT:
            if not stop:
                raise PQLError("'Provenance' needs a member, e.g. "
                               "Provenance.file", *_pos(path))
            first = steps[0]
            member = _single_forward_label(first)
            if member is None or first.quantifier != _ONCE:
                raise PQLError("the first step after 'Provenance' must be "
                               "a plain member name", *_pos(path))
            frontier = self.graph.members(member)
            start = 1
        elif path.root in env:
            value = env[path.root]
            if not isinstance(value, OEMNode):
                raise PQLTypeError(
                    f"variable {path.root!r} is not an object", *_pos(path)
                )
            frontier = [value]
        else:
            raise PQLNameError(f"unbound variable {path.root!r}",
                               *_pos(path))
        for index in range(start, stop):
            frontier = self._apply_step(frontier, steps[index])
        return frontier

    def _apply_step(self, frontier: list[OEMNode],
                    step: ast.Step) -> list[OEMNode]:
        """Apply one edge step with its quantifier to a node frontier.

        Single hops always walk the live dicts (cheapest).  Multi-hop
        and unbounded closures consult the index catalogue when one is
        attached: ancestry-label closures from small frontiers come
        from the materialized view, other closures run over the CSR
        arrays when the snapshot is fresh, and everything falls back to
        the dict walk mid-burst.  All three produce the same node set.
        """
        if self.catalog is not None and frontier:
            fast = self._apply_step_fast(frontier, step)
            if fast is not None:
                return fast
        minimum = step.quantifier.minimum
        maximum = step.quantifier.maximum
        result: dict[int, OEMNode] = {}
        # BFS over repetition depth; visited prevents cycles from looping
        # (the provenance graph is a DAG, but ^edges make walks revisit).
        visited: dict[int, int] = {}
        layer = list(frontier)
        depth = 0
        while layer:
            if depth >= minimum:
                for node in layer:
                    result.setdefault(id(node), node)
            if maximum is not None and depth >= maximum:
                break
            next_layer: list[OEMNode] = []
            for node in layer:
                for target in self._follow(node, step.edge):
                    if visited.get(id(target), -1) < depth + 1:
                        if id(target) not in visited:
                            visited[id(target)] = depth + 1
                            next_layer.append(target)
            layer = next_layer
            depth += 1
        return list(result.values())

    def _apply_step_fast(self, frontier: list[OEMNode],
                         step: ast.Step) -> Optional[list[OEMNode]]:
        """Serve a closure step from the ancestry view or the CSR
        snapshot; None means "use the live dict walk"."""
        minimum = step.quantifier.minimum
        maximum = step.quantifier.maximum
        if maximum is not None and maximum <= 1:
            return None
        edges = _flat_edges(step.edge)
        if not edges:
            return None
        catalog = self.catalog
        notes = self._notes
        labels = {name for name, _ in edges}
        directions = {reverse for _, reverse in edges}
        if (maximum is None and minimum <= 1 and len(directions) == 1
                and len(frontier) <= _VIEW_FRONTIER_MAX
                and labels <= ANCESTRY_LABELS):
            # Materialized ancestry closure, cached per root.
            reverse = next(iter(directions))
            key = tuple(sorted(labels))
            if notes is not None:
                notes["ancestry_view"] = notes.get("ancestry_view", 0) + 1
            result: dict[int, OEMNode] = {}
            if minimum == 0:
                for node in frontier:
                    result.setdefault(id(node), node)
            for node in frontier:
                for reached in catalog.view.closure(node, key, reverse):
                    result.setdefault(id(reached), reached)
            return list(result.values())
        csr = catalog.csr()
        if csr is None:
            # Mid-burst: the snapshot is stale, walk the live dicts.
            if notes is not None:
                notes["dict_walk"] = notes.get("dict_walk", 0) + 1
            return None
        node_id = csr.node_id
        roots = []
        for node in frontier:
            nid = node_id.get(id(node))
            if nid is None:
                return None
            roots.append(nid)
        if notes is not None:
            notes["csr_bfs"] = notes.get("csr_bfs", 0) + 1
        found = csr.bfs(roots, edges, minimum, maximum)
        nodes = csr.nodes
        return [nodes[index] for index in found]

    def _follow(self, node: OEMNode, edge: ast.EdgeExpr) -> list[OEMNode]:
        if isinstance(edge, ast.EdgeAlt):
            out: list[OEMNode] = []
            for option in edge.options:
                out.extend(self._follow(node, option))
            return out
        if edge.reverse:
            return node.rin(edge.name)
        return node.out(edge.name)

    # -- expression evaluation ------------------------------------------------------------

    def _values(self, expr: ast.Expr, env: Env) -> list:
        """Evaluate an expression to its value set (list, ordered)."""
        if isinstance(expr, ast.Literal):
            return [expr.value]
        if isinstance(expr, ast.PathValue):
            return self._path_values(expr.path, env)
        if isinstance(expr, ast.Compare):
            return [self._compare(expr, env)]
        if isinstance(expr, (ast.BoolOp, ast.Not)):
            return [self._truth(expr, env)]
        if isinstance(expr, ast.Arith):
            return self._arith(expr, env)
        if isinstance(expr, ast.Neg):
            return [_numeric(-value) for value in
                    self._values(expr.operand, env)
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)]
        if isinstance(expr, ast.Call):
            if expr.name in _SCALARS:
                if len(expr.args) != 1:
                    raise PQLError(f"{expr.name}() takes one argument",
                                   *_pos(expr))
                fn = _SCALARS[expr.name]
                return [out for value in self._values(expr.args[0], env)
                        if (out := fn(value)) is not None]
            return [self._call(expr, env)]
        if isinstance(expr, ast.InQuery):
            return [self._in_query(expr, env)]
        if isinstance(expr, ast.ExistsQuery):
            return [bool(self.execute(expr.query, env))]
        raise PQLError(f"unhandled expression node: {expr!r}")

    def _path_values(self, path: ast.Path, env: Env) -> list:
        """A path in expression position: nodes *and* atoms it reaches.

        All but the last step must traverse edges; the last step also
        collects atom values of its label from the frontier.
        """
        if not path.steps:
            if path.root not in env:
                raise PQLNameError(f"unbound variable {path.root!r}",
                                   *_pos(path))
            return [env[path.root]]
        frontier = self._path_nodes(path, env, len(path.steps) - 1)
        last = path.steps[-1]
        values: list = []
        if last.quantifier == _ONCE:
            label = _single_forward_label(last)
            if label is not None:
                for node in frontier:
                    values.extend(node.atoms.get(label, ()))
        values.extend(self._apply_step(frontier, last))
        return values

    def _truth(self, expr: ast.Expr, env: Env) -> bool:
        """Evaluate an expression as a predicate."""
        if isinstance(expr, ast.BoolOp):
            if expr.op == "and":
                return all(self._truth(op, env) for op in expr.operands)
            return any(self._truth(op, env) for op in expr.operands)
        if isinstance(expr, ast.Not):
            return not self._truth(expr.operand, env)
        if isinstance(expr, ast.Compare):
            return self._compare(expr, env)
        if isinstance(expr, ast.InQuery):
            return self._in_query(expr, env)
        if isinstance(expr, ast.ExistsQuery):
            return bool(self.execute(expr.query, env))
        if isinstance(expr, ast.PathValue):
            return bool(self._values(expr, env))     # existence test
        values = self._values(expr, env)
        return any(bool(value) for value in values)

    def _compare(self, expr: ast.Compare, env: Env) -> bool:
        left = self._values(expr.left, env)
        right = self._values(expr.right, env)
        for lhs in left:
            for rhs in right:
                if _compare_pair(expr.op, lhs, rhs):
                    return True
        return False

    def _arith(self, expr: ast.Arith, env: Env) -> list:
        out: list = []
        for lhs in self._values(expr.left, env):
            for rhs in self._values(expr.right, env):
                if not _is_number(lhs) or not _is_number(rhs):
                    continue
                out.append(_apply_arith(expr.op, lhs, rhs))
        return out

    # -- functions / aggregates ---------------------------------------------------------------

    def _call(self, expr: ast.Call, env: Env):
        if expr.name in _AGGREGATES:
            if len(expr.args) != 1:
                raise PQLError(f"{expr.name}() takes exactly one argument",
                               *_pos(expr))
            return _aggregate(expr.name, self._values(expr.args[0], env))
        raise PQLNameError(f"unknown function {expr.name!r}", *_pos(expr))

    def _aggregate_over(self, expr: ast.Call, envs: list[Env]):
        """Aggregate across the whole binding set (aggregate-only select)."""
        if len(expr.args) != 1:
            raise PQLError(f"{expr.name}() takes exactly one argument",
                           *_pos(expr))
        values: list = []
        seen: set = set()
        for env in envs:
            for value in self._values(expr.args[0], env):
                key = _dedup_key(value)
                if key in seen:
                    continue
                seen.add(key)
                values.append(value)
        return _aggregate(expr.name, values)

    def _in_query(self, expr: ast.InQuery, env: Env) -> bool:
        needles = self._values(expr.needle, env)
        haystack = self.execute(expr.query, env)
        hay_keys = {_dedup_key(value) for value in haystack}
        return any(_dedup_key(needle) in hay_keys for needle in needles)

    def _select_values(self, expr: ast.Expr, env: Env) -> list:
        values = self._values(expr, env)
        return values if values else []


# -- helpers ------------------------------------------------------------------------------


def _single_forward_label(step: ast.Step) -> Optional[str]:
    if isinstance(step.edge, ast.EdgeName) and not step.edge.reverse:
        return step.edge.name
    return None


def _flat_edges(edge: ast.EdgeExpr) -> Optional[list[tuple[str, bool]]]:
    """Flatten an edge expression to [(label, reverse), ...], or None
    if it holds anything other than names/alternations."""
    if isinstance(edge, ast.EdgeName):
        return [(edge.name, edge.reverse)]
    if isinstance(edge, ast.EdgeAlt):
        out: list[tuple[str, bool]] = []
        for option in edge.options:
            flat = _flat_edges(option)
            if flat is None:
                return None
            out.extend(flat)
        return out
    return None


def _equality_name_filters(where: Optional[ast.Expr]) -> dict:
    """Map of variable -> string literal for top-level conjuncts of the
    form ``Var.name = "literal"`` (either operand order)."""
    filters: dict = {}
    if where is None:
        return filters
    conjuncts = (list(where.operands)
                 if isinstance(where, ast.BoolOp) and where.op == "and"
                 else [where])
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.Compare) or conjunct.op != "=":
            continue
        for lhs, rhs in ((conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)):
            if (isinstance(lhs, ast.PathValue)
                    and len(lhs.path.steps) == 1
                    and _single_forward_label(lhs.path.steps[0]) == "name"
                    and lhs.path.steps[0].quantifier == ast.Quantifier()
                    and isinstance(rhs, ast.Literal)
                    and isinstance(rhs.value, str)):
                filters[lhs.path.root] = rhs.value
    return filters


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


def _numeric(value):
    return value


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


def _compare_pair(op: str, lhs, rhs) -> bool:
    if op == "like":
        return _like(lhs, rhs)
    if isinstance(lhs, OEMNode) or isinstance(rhs, OEMNode):
        if op == "=":
            return (isinstance(lhs, OEMNode) and isinstance(rhs, OEMNode)
                    and lhs.ref == rhs.ref)
        if op == "!=":
            return not (isinstance(lhs, OEMNode) and isinstance(rhs, OEMNode)
                        and lhs.ref == rhs.ref)
        return False
    comparable = (
        (_is_number(lhs) and _is_number(rhs))
        or (isinstance(lhs, str) and isinstance(rhs, str))
        or (isinstance(lhs, bytes) and isinstance(rhs, bytes))
        or (isinstance(lhs, bool) and isinstance(rhs, bool))
    )
    if not comparable:
        return False
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise PQLError(f"unknown comparison operator {op!r}")


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
