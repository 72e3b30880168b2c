"""Query engine: databases -> OEM graph -> parsed-and-evaluated PQL.

This is the component Waldo serves in the paper: it owns the graph built
from one or more volumes' provenance databases (cross-volume queries are
just a merged record stream) and runs PQL text against it.

Engine lifecycle
----------------

:meth:`QueryEngine.live` is the one construction path: it batch-builds
the graph from the sources' current records, then *subscribes* to each
source so every record the source ingests afterwards is spliced into the
graph via :meth:`OEMGraph.apply_batch` -- the engine stays current
without ever being rebuilt.  ``System.query_engine()`` and the CLI hand
out the same live engine instead of constructing their own; a sync is an
O(new records) update, not an O(total history) rebuild.

Sources are duck-typed: anything with ``all_records()`` works (a
``ProvenanceDatabase`` is read through ``all_rows()``, without minting
a record), and anything that also has ``subscribe_batch(listener)``
(the push feed it exposes) keeps the engine live.  The graph
receives records; it never pulls them from storage (lint rule PL210).

:meth:`from_records` yields a static snapshot engine over a plain
record stream.

Plan cache
----------

Compiled queries are cached by *shape*: the lexer's token stream with
every string and number literal in expression position lifted out into
a parameter tuple (:func:`repro.pql.lexer.parameterize`).  Whitespace,
comments, keyword case, quote style and the literals' values are not
part of the key; identifiers, operators, ``true``/``false``, ``limit
N`` and quantifier bounds are, and so is each literal's type category
(``?s``/``?n``).  Lexing, parsing, the lint pre-pass and compilation
(:meth:`~repro.pql.evaluator.Evaluator.compile`: closures in which the
n-th literal reads slot n of the parameter tuple) run once per shape.
Every other execution is one pass of the lexer's pattern over the
text, a cache lookup and a run of the closures with the caller's
parameters -- no AST is rebuilt or walked.  The closures read the graph
and its index catalog as they run, so only the check depends on the
graph's vocabulary.

Each cached plan remembers the graph vocabulary epoch at which it
last passed the lint pre-pass: repeat executions skip the check until
the graph's vocabulary grows (a new atom/edge label or Provenance
member), at which point the plan is re-checked once against the widened
vocabulary.  The verdict carries over between the literals of one shape
because the checker reads only a literal's type category, which the
placeholder fixes.  Positions in a cached AST are those of the text the
shape was parsed from, so a plan that fails its check or raises is
re-compiled from the caller's text before the error leaves the engine.
The cache is an LRU of at most :data:`PLAN_CACHE_SHAPES` shapes.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterable

from repro.core.errors import PQLError
from repro.core.records import ProvenanceRecord, slots_of
from repro.obs import NULL_OBS
from repro.pql.ast import Query
from repro.pql.evaluator import Evaluator
from repro.pql.indexes import IndexCatalog
from repro.pql.lexer import parameterize
from repro.pql.oem import OEMGraph, OEMNode
from repro.pql.parser import parse

#: "Plan has never passed the check" sentinel -- distinct from None
#: because foreign graphs without a vocab_epoch report epoch None.
_NEVER = object()

#: Shapes the plan cache retains; the least recently used one goes.
PLAN_CACHE_SHAPES = 256


class CompiledPlan:
    """One cached query shape: the AST of the text it was compiled from
    (``source``, ``query``), its closures (``run``), the vocabulary
    epoch at which it last passed the lint pre-pass, and the latest
    execution's caller ``text``, its literals (``params``) and access
    choices (:class:`~repro.pql.planner.BindingPlan` list, the EXPLAIN
    payload, re-made per execution against current graph sizes)."""

    __slots__ = ("shape", "source", "text", "params", "query", "run",
                 "checked_epoch", "binding_plans")

    def __init__(self, shape: str, text: str, params: tuple, query: Query,
                 run):
        self.shape = shape
        self.source = self.text = text
        self.params = params
        self.query = query
        self.run = run
        self.checked_epoch = _NEVER
        self.binding_plans = None

    def __repr__(self) -> str:
        return f"<CompiledPlan {self.shape!r} {self.params!r}>"


class QueryEngine:
    """Parse + evaluate PQL over a provenance graph.

    By default every query runs through the ``repro.lint`` static
    pre-pass first: blocking diagnostics (unknown attributes, unbound
    variables, bad calls, ...) surface as positioned ``PQLError``s in
    microseconds, before the nested-loop join starts.  Pass
    ``check=False`` (construction-time or per call) to opt out.
    """

    def __init__(self, graph: OEMGraph, check: bool = True, obs=NULL_OBS):
        self.graph = graph
        self.obs = obs
        #: shape -> plan, least recently used first.
        self._plans: OrderedDict[str, CompiledPlan] = OrderedDict()
        self._last_plan: CompiledPlan | None = None
        self._check = check
        self._vocabulary = None
        self._vocab_epoch = _NEVER
        self._last_plan_cache_hit = False
        #: The graph's index catalogue, shared by every engine over it.
        self.catalog = catalog = IndexCatalog.attach(graph)
        if obs is not NULL_OBS and id(obs) not in catalog.collector_obs:
            catalog.collector_obs.add(id(obs))
            obs.add_collector("pql", catalog.counters)
        self._evaluator = Evaluator(graph, catalog)

    # -- construction -----------------------------------------------------------

    @classmethod
    def live(cls, sources, obs=NULL_OBS,
             check: bool = True) -> "QueryEngine":
        """The one real construction path: a live engine over sources.

        Batch-builds the graph from each source's ``all_rows()`` (or,
        for a source without one, ``all_records()``), then
        subscribes to every source that supports it so later
        inserts flow straight into the graph.  Callers own exactly one
        live engine per source set and reuse it across syncs.
        """
        streams = []
        for source in sources:
            all_rows = getattr(source, "all_rows", None)
            streams.append(all_rows() if all_rows is not None
                           else slots_of(source.all_records()))
        with obs.span("oem.build", layer="pql") as span:
            # The sources' own rows, streamed: no copy in between.
            graph = OEMGraph.build(streams=streams)
            span.tag("nodes", len(graph))
        engine = cls(graph, check=check, obs=obs)
        for source in sources:
            # One graph splice per drained group.
            subscribe_batch = getattr(source, "subscribe_batch", None)
            if subscribe_batch is not None:
                subscribe_batch(engine._apply_batch)
        return engine

    @classmethod
    def from_records(cls, records: Iterable[ProvenanceRecord],
                     obs=NULL_OBS) -> "QueryEngine":
        """A static snapshot engine over a raw record stream (no
        source to stay live against)."""
        return cls(OEMGraph.build(records), obs=obs)

    # -- live maintenance ----------------------------------------------------------

    def _apply_batch(self, records) -> None:
        """Subscription callback: splice one record group in."""
        with self.obs.span("oem.apply", layer="pql") as span:
            count = self.graph.apply_batch(records)
            span.tag("records", count)
        self.obs.inc("pql", "oem_records_applied", count)

    # -- compilation ------------------------------------------------------------

    def plan(self, text: str) -> CompiledPlan:
        """The plan of ``text``'s shape, holding ``text``'s literals
        (compiled and cached on first sight of the shape).

        Sets :attr:`_last_plan_cache_hit` so :meth:`execute` can report
        the cache status to the slow-query log.
        """
        plan = self._last_plan
        if plan is None or plan.text != text:
            shape, params = parameterize(text)
            plan = self._plans.get(shape)
            if plan is None:
                self._last_plan_cache_hit = False
                return self._compile(text, shape, params)
            self._plans.move_to_end(shape)
            plan.text, plan.params = text, params
            self._last_plan = plan
        self._last_plan_cache_hit = True
        self.obs.inc("pql", "parse_cache_hits")
        return plan

    def _compile(self, text: str, shape: str, params: tuple
                 ) -> CompiledPlan:
        """Parse and compile ``text`` as its shape's cached plan."""
        with self.obs.span("pql.parse", layer="pql"):
            query = parse(text)
            plan = CompiledPlan(shape, text, params, query,
                                self._evaluator.compile(query))
        self._plans[shape] = self._last_plan = plan
        if len(self._plans) > PLAN_CACHE_SHAPES:
            self._plans.popitem(last=False)
            self.obs.inc("pql", "plan_evictions")
        self.obs.inc("pql", "parses")
        self.obs.inc("pql", "plan_compiles")
        self.obs.event("pql.plan_compile", layer="pql", query=text,
                       shape=shape)
        return plan

    def vocabulary(self):
        """The lint vocabulary for this graph: the static ``Attr``
        universe widened by every label the graph actually holds.
        Recomputed when the graph's vocabulary epoch moves."""
        epoch = getattr(self.graph, "vocab_epoch", None)
        if self._vocabulary is None or epoch != self._vocab_epoch:
            from repro.lint.pqlcheck import Vocabulary
            self._vocabulary = Vocabulary.default().for_graph(self.graph)
            self._vocab_epoch = epoch
        return self._vocabulary

    def lint(self, text: str) -> list:
        """Static diagnostics for one query, without evaluating it."""
        from repro.lint.pqlcheck import check_query_text
        return check_query_text(text, self.vocabulary())

    # -- execution -----------------------------------------------------------

    def execute(self, text: str, check: bool | None = None) -> list:
        """Run a PQL query; returns rows (see Evaluator.execute)."""
        started = time.perf_counter()
        checking = self._check if check is None else check
        with self.obs.span("pql.execute", layer="pql") as span:
            plan = self.plan(text)
            try:
                rows = self._run(plan, checking)
            except PQLError:
                if plan.source == text:
                    raise
                # The cached AST carries another text's positions:
                # fail again from this one's.
                plan = self._compile(text, plan.shape, plan.params)
                rows = self._run(plan, checking)
            span.tag("rows", len(rows))
        self.obs.inc("pql", "queries_executed")
        self.obs.inc("pql", "rows_returned", len(rows))
        # Evaluation timing is wall-clock: queries run above the simulated
        # machine, so perf work on the engine needs real seconds.
        elapsed = time.perf_counter() - started
        self.obs.observe("pql", "execute_wall_s", elapsed)
        if self.obs.journal.enabled:
            # The plan repr is only worth rendering when the journal
            # can actually record it.
            self.obs.slow_query(text, elapsed,
                                cache_hit=self._last_plan_cache_hit,
                                rows=len(rows), plan=repr(plan),
                                shape=plan.shape)
        return rows

    def _run(self, plan: CompiledPlan, check: bool) -> list:
        """Check (once per shape and vocabulary epoch) and evaluate."""
        if check:
            vocabulary = self.vocabulary()          # refreshes epoch
            if plan.checked_epoch != self._vocab_epoch:
                with self.obs.span("pql.check", layer="pql"):
                    from repro.lint.pqlcheck import (check_query,
                                                     raise_on_errors)
                    raise_on_errors(check_query(plan.query, vocabulary))
                plan.checked_epoch = self._vocab_epoch
            else:
                self.obs.inc("pql", "check_cache_hits")
        with self.obs.span("pql.eval", layer="pql"):
            log: list = []
            rows = plan.run(plan.params, log)
            plan.binding_plans = log
            return rows

    def explain(self, text: str, check: bool | None = None) -> dict:
        """Run a query and report the planner's access-path choices.

        Returns ``{"query", "shape", "rows", "bindings"}``
        where each binding entry carries the chosen access path (index /
        scan / traversal), its detail, and estimated vs actual rows.
        EXPLAIN *executes* -- actual row counts are measured, not
        guessed -- and journals a ``pql.plan_explain`` event.
        """
        rows = self.execute(text, check=check)
        plan = self._last_plan                      # the plan just run
        bindings = [binding.as_dict()
                    for binding in plan.binding_plans]
        report = {
            "query": plan.text,
            "shape": plan.shape,
            "rows": len(rows),
            "bindings": bindings,
        }
        self.obs.event("pql.plan_explain", layer="pql", always=True,
                       query=plan.text, shape=plan.shape, rows=len(rows),
                       accesses=",".join(binding["access"]
                                         for binding in bindings))
        return report

    def execute_refs(self, text: str) -> list:
        """Like :meth:`execute`, but nodes come back as ObjectRefs."""
        out = []
        for row in self.execute(text):
            if isinstance(row, OEMNode):
                out.append(row.ref)
            elif isinstance(row, tuple):
                out.append(tuple(cell.ref if isinstance(cell, OEMNode)
                                 else cell for cell in row))
            else:
                out.append(row)
        return out
