"""The cost-based planner and its access paths.

Covers the access-path layer (equality/range indexes, the ancestry
memo) in isolation, the planner's per-binding choices, the EXPLAIN
surface (engine dict, journal event), the passmon
counters, engine detach, and the regression guard for the old OEMNode
defaultdict leak (queries must never grow a node's footprint).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.core.errors import PQLTypeError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.obs import Observability
from repro.pql.ast import Literal
from repro.pql.engine import QueryEngine
from repro.pql.indexes import (AncestryView, EqualityIndex, IndexCatalog,
                               RangeIndex)
from repro.pql.oem import OEMGraph
from repro.pql.parser import parse
from repro.pql.planner import extract_filters, place_conjuncts
from repro.storage.database import ProvenanceDatabase
from tests.conftest import planned_refs, reference_refs, reference_rows


def R(pnode, attr, value, version=0):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


def build_records():
    """A small DAG with md5/mtime atoms: 1 -> 2 -> 3 by input."""
    return [
        R(1, Attr.TYPE, ObjType.FILE), R(1, Attr.NAME, "/a"),
        R(1, "MD5", "aaa"), R(1, "MTIME", 10),
        R(2, Attr.TYPE, ObjType.PROCESS), R(2, Attr.NAME, "cc"),
        R(2, Attr.INPUT, ObjectRef(1, 0)), R(2, "MTIME", 20),
        R(3, Attr.TYPE, ObjType.FILE), R(3, Attr.NAME, "/b"),
        R(3, "MD5", "bbb"), R(3, "MTIME", 30),
        R(3, Attr.INPUT, ObjectRef(2, 0)),
    ]


@pytest.fixture
def graph():
    return OEMGraph.build(build_records())


@pytest.fixture
def engine():
    return QueryEngine.from_records(build_records())


def _replayed(graph, label: str) -> IndexCatalog:
    """A catalog over an empty graph whose ``label`` indexes (built on
    demand, empty) are then fed every ``label`` atom of ``graph`` through
    ``note_atom``, node by node in the graph's order."""
    catalog = IndexCatalog(OEMGraph())
    catalog.equality(label)
    catalog.range(label)
    for node in graph.nodes():
        for value in node.atoms.get(label, ()):
            catalog.note_atom(node, label, value)
    return catalog


class TestEqualityIndex:
    def test_build_and_lookup(self, graph):
        index = EqualityIndex("md5", graph.nodes())
        assert [n.ref for n in index.lookup("aaa")] == [ObjectRef(1, 0)]
        assert index.lookup("zzz") == []
        assert index.estimate("bbb") == 1

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 2),
                              st.sampled_from(["aaa", "ccc", "ddd", 7])),
                    max_size=30))
    @settings(max_examples=100)
    def test_incremental_add_matches_rebuild(self, atoms):
        """Maintained through the graph's notifications, the index holds
        what a rebuild finds; and the one-pass build has exactly the
        shape -- buckets node-or-list, entries in order -- that
        ``note_atom`` gives replayed over the same nodes in order."""
        graph = OEMGraph.build(build_records())
        catalog = IndexCatalog.attach(graph)
        index = catalog.equality("md5")
        for pnode, version, value in atoms:
            graph.apply(R(pnode, "MD5", value, version))
        graph.apply(R(9, Attr.TYPE, ObjType.FILE))
        rebuilt = EqualityIndex("md5", graph.nodes())
        values = ("aaa", "bbb", "ccc", "ddd", 7)
        assert {v: sorted(n.ref for n in index.lookup(v))
                for v in values} == \
               {v: sorted(n.ref for n in rebuilt.lookup(v))
                for v in values}
        assert rebuilt._buckets == _replayed(graph, "md5").equality(
            "md5")._buckets

    def test_unhashable_values_skipped(self, graph):
        index = EqualityIndex("md5", graph.nodes())
        size = len(index)
        index.add(["un", "hashable"], graph.named("/a")[0])
        assert index.lookup(["un", "hashable"]) == []
        assert index.estimate(["un", "hashable"]) == 0
        assert len(index) == size

    def test_bucket_is_the_node_until_a_second_entry(self, graph):
        a, b, c = (graph.named(name)[0] for name in ("/a", "cc", "/b"))
        index = EqualityIndex("nosuch", ())
        index.add("v", a)
        assert index._buckets["v"] is a         # no list per single value
        assert index.lookup("v") == [a] and index.estimate("v") == 1
        index.add("v", b)
        assert index._buckets["v"] == [a, b]    # promoted, order kept
        index.add("v", c)
        assert index.lookup("v") == [a, b, c] and index.estimate("v") == 3
        assert len(index) == 3

    def test_value_held_twice_by_one_node(self, graph):
        a = graph.named("/a")[0]
        index = EqualityIndex("nosuch", ())
        index.add("v", a)
        index.add("v", a)
        assert index.lookup("v") == [a, a]      # once per atom, as before
        assert index.estimate("v") == len(index) == 2

    def test_lookup_result_is_the_callers(self, graph):
        a, b = graph.named("/a")[0], graph.named("/b")[0]
        index = EqualityIndex("nosuch", ())
        index.add("one", a)
        index.add("two", a)
        index.add("two", b)
        for value, held in (("one", [a]), ("two", [a, b]), ("none", [])):
            index.lookup(value).append(None)
            index.lookup(value).clear()
            assert index.lookup(value) == held
            assert index.estimate(value) == len(held)

    def test_len_counts_entries_not_values(self, graph):
        index = EqualityIndex("md5", graph.nodes())
        assert len(index) == sum(len(n.atoms.get("md5", ())) for n in graph.nodes())
        assert len(EqualityIndex("type", graph.nodes())) == sum(
            len(n.atoms.get("type", ())) for n in graph.nodes())


class TestRangeIndex:
    def test_bounds(self, graph):
        index = RangeIndex("mtime", graph.nodes())
        refs = lambda low, li, high, hi: sorted(
            n.ref.pnode for n in index.lookup(low, li, high, hi))
        assert refs(None, False, 15, False) == [1]      # mtime < 15
        assert refs(20, True, None, False) == [2, 3]    # mtime >= 20
        assert refs(20, False, None, False) == [3]      # mtime > 20
        assert refs(None, False, 20, True) == [1, 2]    # mtime <= 20
        assert index.estimate(None, False, None, False) == 3

    def test_non_numeric_values_skipped(self, graph):
        index = RangeIndex("md5", graph.nodes())       # strings: empty
        assert len(index) == 0

    def test_bool_not_indexed(self, graph):
        index = RangeIndex("mtime", graph.nodes())
        index.add(True, graph.named("/a")[0])
        assert index.estimate(None, False, None, False) == 3


    def test_bulk_build_matches_one_at_a_time(self, graph):
        """The lazy build sorts once; the result is what insort-ing the
        same values in node order gives (ties keep arrival order)."""
        for pnode, mtime in ((4, 20), (5, 10), (6, 20.0), (7, 5)):
            graph.apply(R(pnode, "MTIME", mtime))
        built = RangeIndex("mtime", graph.nodes())
        grown = RangeIndex("mtime", [])
        for node in graph.nodes():
            for value in node.atoms.get("mtime", ()):
                grown.add(value, node)
        assert built._pairs == grown._pairs
        assert [pair[0] for pair in built._pairs] == \
            sorted(pair[0] for pair in built._pairs)

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 2),
                              st.one_of(st.integers(0, 40),
                                        st.floats(0, 40),
                                        st.sampled_from([True, "later"]))),
                    max_size=30))
    @settings(max_examples=100)
    def test_incremental_add_matches_rebuild(self, atoms):
        """The one-pass build has exactly the pairs (value, seq, node)
        and the multi-valued nodes, in order, that ``note_atom`` gives
        replayed over the same nodes in order; maintained through the
        graph's notifications, it answers what a rebuild answers."""
        graph = OEMGraph.build(build_records())
        catalog = IndexCatalog.attach(graph)
        index = catalog.range("mtime")
        for pnode, version, value in atoms:
            graph.apply(R(pnode, "MTIME", value, version))
        rebuilt = RangeIndex("mtime", graph.nodes())
        replayed = _replayed(graph, "mtime").range("mtime")
        assert rebuilt._pairs == replayed._pairs
        assert rebuilt._seq == replayed._seq == index._seq
        assert list(rebuilt._multi) == list(replayed._multi)
        for bounds in ((None, False, 20, True), (10, True, 30, False)):
            assert sorted(n.ref for n in index.lookup(*bounds)) == \
                sorted(n.ref for n in rebuilt.lookup(*bounds))
        assert set(index._multi) == set(rebuilt._multi)

    def test_multi_valued_nodes_join_two_sided_lookups_only(self, graph):
        catalog = IndexCatalog.attach(graph)
        index = catalog.range("mtime")
        assert index.lookup(12, True, 18, False) == []
        graph.apply(R(1, "MTIME", 99))          # /a now holds 10 and 99
        graph.apply(R(3, "MTIME", "later"))     # not a number: still one
        pnodes = lambda *bounds: sorted(
            n.ref.pnode for n in index.lookup(*bounds))
        assert pnodes(12, True, 18, False) == [1]
        assert index.estimate(12, True, 18, False) == 1
        assert pnodes(50, True, None, False) == [1]     # one-sided: exact
        assert pnodes(None, False, 5, False) == []
        rebuilt = RangeIndex("mtime", graph.nodes())
        assert list(rebuilt._multi) == list(index._multi)


class TestAncestryView:
    def test_hit_within_one_graph_state(self, graph):
        view = IndexCatalog.attach(graph).view
        root = graph.named("/b")[0]
        first = view.closure(root, ("input",), False)
        assert {n.name for n in first} == {"cc", "/a"}
        assert (view.hits, view.refreshes) == (0, 1)
        again = view.closure(root, ("input",), False)
        assert again is first
        assert (view.hits, view.refreshes) == (1, 1)

    def test_irrelevant_edge_does_not_grow_closure(self, graph):
        catalog = IndexCatalog.attach(graph)
        root = graph.named("/b")[0]
        catalog.view.closure(root, ("input",), False)
        graph.apply(R(8, Attr.TYPE, ObjType.FILE))
        graph.apply(R(7, Attr.TYPE, ObjType.FILE))
        graph.apply(R(8, Attr.INPUT, ObjectRef(7, 0)))   # disconnected
        closure = catalog.view.closure(root, ("input",), False)
        assert {n.name for n in closure} == {"cc", "/a"}

    def test_ancestry_splice_empties_the_memo(self, graph):
        view = IndexCatalog.attach(graph).view
        root = graph.named("/b")[0]
        view.closure(root, ("input",), False)
        view.closure(root, ("input",), True)
        # One splice, two ancestry edges: /a gains an input -> new node
        # 9, which gains one -> 10.  One emptying, counted once.
        graph.apply_batch([R(9, Attr.NAME, "/deep"),
                           R(1, Attr.INPUT, ObjectRef(9, 0)),
                           R(9, Attr.INPUT, ObjectRef(10, 0))])
        assert len(view) == 0
        assert view.invalidations == 1
        graph.apply(R(2, Attr.FORKPARENT, ObjectRef(10, 0)))
        assert view.invalidations == 1      # nothing cached: no emptying
        # The next read walks the graph as it is now.
        closure = view.closure(root, ("input",), False)
        assert [n.ref.pnode for n in closure] == [2, 1, 9, 10]
        assert view.refreshes == 3

    def test_atoms_only_splice_keeps_the_memo(self, graph):
        view = IndexCatalog.attach(graph).view
        root = graph.named("/b")[0]
        first = view.closure(root, ("input",), False)
        graph.apply_batch([R(1, "MD5", "ccc"), R(3, Attr.NAME, "/b2"),
                           R(11, Attr.TYPE, ObjType.FILE)])
        assert len(view) == 1
        assert view.invalidations == 0
        assert view.closure(root, ("input",), False) is first
        assert view.hits == 1

    def test_lru_bounded(self, graph):
        view = AncestryView(max_entries=2)
        nodes = graph.nodes()
        for node in nodes:
            view.closure(node, ("input",), False)
        assert len(view) == 2

    # A splice with an ancestry edge costs the memo one walk per cached
    # root on its next read, whatever the order of the burst.  Fixture
    # chain: /b(3) -input-> cc(2) -input-> /a(1).

    @staticmethod
    def _chain_edge(near: int, far: int, reverse: bool, attr=Attr.INPUT):
        """One edge a walk in the given direction crosses from pnode
        ``near`` to pnode ``far``."""
        subject, value = (far, near) if reverse else (near, far)
        return R(subject, attr, ObjectRef(value, 0))

    @staticmethod
    def _cache_whole_chain(graph, reverse: bool):
        """Cache the ``input`` closure from the end of the chain a walk
        in the given direction starts at; returns the view, a reader of
        the closure's pnodes (in order), and the two end pnodes."""
        view = IndexCatalog.attach(graph).view
        root, last = (1, 3) if reverse else (3, 1)
        root_node = graph.node(ObjectRef(root, 0))

        def read():
            return [node.ref.pnode
                    for node in view.closure(root_node, ("input",), reverse)]
        assert read() == [2, last]
        return view, read, root, last

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("swap", [False, True])
    def test_burst_edge_joins_through_another(self, graph, reverse, swap):
        """Edge B's near side (9) is reachable only through edge A of
        the same burst; the answer cannot depend on arrival order."""
        view, read, _, last = self._cache_whole_chain(graph, reverse)
        refreshes = view.refreshes
        burst = [self._chain_edge(last, 9, reverse),        # A
                 self._chain_edge(9, 10, reverse)]          # B
        graph.apply_batch(burst[::-1] if swap else burst)
        assert read() == [2, last, 9, 10]
        assert view.refreshes == refreshes + 1

    @pytest.mark.parametrize("reverse", [False, True])
    def test_edge_from_the_root_itself(self, graph, reverse):
        """The root is not a member of its own closure, but an edge
        leaving it grows the closure all the same: 9 is one hop out,
        so the walk reaches it before the end of the chain."""
        _, read, root, last = self._cache_whole_chain(graph, reverse)
        graph.apply(self._chain_edge(root, 9, reverse))
        assert read() == [2, 9, last]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unfollowed_label_is_ignored(self, graph, reverse):
        """An edge outside the ancestry labels keeps the memo."""
        view, read, _, last = self._cache_whole_chain(graph, reverse)
        refreshes = view.refreshes
        graph.apply(self._chain_edge(2, 9, reverse, Attr.BRANCH_OF))
        assert read() == [2, last]
        assert view.refreshes == refreshes


class TestPlannerChoices:
    def _access(self, engine, query):
        engine.execute(query)
        plans = engine.plan(query).binding_plans
        return {plan.variable: plan for plan in plans}

    def test_equality_conjunct_uses_index(self, engine):
        plans = self._access(
            engine,
            'select F from Provenance.file as F where F.md5 = "aaa"')
        assert plans["F"].access == "equality_index"
        assert plans["F"].est_rows == 1
        assert plans["F"].actual_rows == 1

    def test_range_conjunct_uses_range_index(self, engine):
        plans = self._access(
            engine,
            "select F from Provenance.file as F where F.mtime < 15")
        assert plans["F"].access == "range_index"
        assert plans["F"].detail["index"] == "mtime"

    def test_unfiltered_member_scans(self, engine):
        plans = self._access(engine,
                             "select F from Provenance.file as F")
        assert plans["F"].access == "member_scan"

    def test_traversal_binding_marked(self, engine):
        plans = self._access(
            engine,
            "select A from Provenance.file as F, F.input* as A "
            'where F.name = "/b"')
        assert plans["A"].access == "traverse"
        assert plans["F"].access == "equality_index"

    def test_wider_bucket_than_member_class_scans(self, engine):
        """Cost model: an index whose bucket is no smaller than the
        member class must lose to the scan."""
        graph = engine.graph
        for pnode in range(50, 60):
            graph.apply(R(pnode, Attr.TYPE, ObjType.FILE))
            graph.apply(R(pnode, "FLAG", "common"))
        plans = self._access(
            engine,
            "select P from Provenance.process as P "
            'where P.flag = "common"')
        # 1 process total; the flag bucket holds 10 nodes.
        assert plans["P"].access == "member_scan"

    def test_planned_rows_match_naive(self, engine):
        for query in (
            'select F from Provenance.file as F where F.md5 = "bbb"',
            "select N from Provenance.node as N where N.mtime >= 20",
            "select A from Provenance.file as F, F.input* as A "
            'where F.md5 = "bbb"',
        ):
            planned = planned_refs(engine, query)
            naive = reference_refs(engine, query)
            assert sorted(map(repr, planned)) == sorted(map(repr, naive))

    def test_no_evaluator_knob(self, engine):
        """One evaluator per engine: the option that selected the
        reference is a TypeError, at construction and per call."""
        knob = {"optimize": False}
        with pytest.raises(TypeError):
            QueryEngine(engine.graph, **knob)
        with pytest.raises(TypeError):
            engine.execute("select F from Provenance.file as F", **knob)


class TestIntervalMerging:
    """Range conjuncts on one (variable, label) become one interval."""

    FILE = "select F from Provenance.node as F where "

    def _range(self, engine, where):
        engine.execute(self.FILE + where)
        (plan,) = engine.plan(self.FILE + where).binding_plans
        assert plan.access == "range_index"
        detail = plan.detail
        return (detail["low"], detail["low_inc"],
                detail["high"], detail["high_inc"]), plan

    def test_two_sided_is_one_access(self, engine):
        interval, plan = self._range(engine,
                                     "F.mtime >= 15 and F.mtime < 25")
        assert interval == (15, True, 25, False)
        assert (plan.est_rows, plan.actual_rows, plan.kept_rows) == (1, 1, 1)
        assert engine.catalog.index_hits == 1

    def test_exclusive_wins_on_an_equal_bound(self, engine):
        interval, plan = self._range(
            engine, "F.mtime >= 20 and F.mtime > 20 and F.mtime <= 30 "
                    "and F.mtime < 30")
        assert interval == (20, False, 30, False)
        assert plan.actual_rows == 0
        interval, plan = self._range(
            engine, "F.mtime >= 20 and F.mtime <= 20")
        assert interval == (20, True, 20, True)
        assert plan.kept_rows == 1

    def test_contradictory_bounds_give_no_candidates(self, engine):
        for where in ("F.mtime > 25 and F.mtime < 15",
                      "F.mtime > 20 and F.mtime <= 20"):
            _, plan = self._range(engine, where)
            assert (plan.est_rows, plan.actual_rows) == (0, 0)
            assert engine.execute(self.FILE + where) == []

    def test_literal_on_the_left(self, engine):
        interval, _ = self._range(engine, "15 <= F.mtime and 25 > F.mtime")
        assert interval == (15, True, 25, False)

    def test_three_conjuncts_keep_the_tightest(self, engine):
        interval, _ = self._range(
            engine, "F.mtime > 5 and F.mtime < 100 and F.mtime > 12")
        assert interval == (12, False, 100, False)

    def test_two_labels_stay_separate(self, engine):
        graph = engine.graph
        for pnode, size in ((1, 7), (2, 7), (3, 8)):
            graph.apply(R(pnode, "SIZE", size))
        filters = extract_filters(parse(
            self.FILE + "F.mtime >= 10 and F.size < 8 and F.mtime < 30"
        ).where)
        # Templates: the literals are resolved (and intersected) per run.
        assert filters == {"F": [
            ("range", "mtime", ((">=", Literal(10)), ("<", Literal(30)))),
            ("range", "size", (("<", Literal(8)),))]}
        interval, plan = self._range(
            engine, "F.mtime >= 25 and F.size < 9 and F.mtime < 35")
        assert plan.detail["index"] == "mtime"      # 1 candidate beats 3
        assert interval == (25, True, 35, False)


class TestConjunctPlacement:
    def _placed(self, engine, text, outer=()):
        query = parse(text)
        placed, residual = place_conjuncts(query.where,
                                           list(query.bindings), outer)
        return [len(exprs) for exprs in placed], len(residual)

    def test_each_conjunct_sits_where_its_variables_complete(self, engine):
        text = ("select A from Provenance.file as F, F.input* as A "
                'where F.md5 = "bbb" and A.mtime < 25 and F.mtime > A.mtime')
        assert self._placed(engine, text) == ([1, 2], 0)

    def test_shadowed_variable_is_tested_on_its_last_binding(self, engine):
        text = ("select F from Provenance.file as F, F.input as F "
                'where F.name = "cc"')
        assert self._placed(engine, text) == ([0, 1], 0)
        assert [row.name for row in engine.execute(text)] == ["cc"]

    def test_raising_conjunct_and_all_after_it_stay_behind(self, engine):
        text = ("select A from Provenance.file as F, F.input* as A "
                'where F.md5 = "bbb" and A.mtime / 2 > 1 and A.name = "cc"')
        assert self._placed(engine, text) == ([1, 0], 2)

    def test_outer_variables_count_as_bound(self, engine):
        text = ("select X from F.input as X "
                "where X.mtime < F.mtime and G.mtime > 0")
        assert self._placed(engine, text, outer={"F": None}) == ([1], 1)

    def test_root_predicate_runs_once_per_root(self, engine):
        """``input*`` from /b joins three tuples; the md5 conjunct is
        checked on the one root tuple, never on the joined ones: once
        the md5 index is built, a run reads the root's md5 atom once."""
        text = ("select A from Provenance.file as F, F.input* as A "
                'where F.md5 = "bbb"')
        engine.execute(text)                        # builds the index
        root = engine.graph.named("/b")[0]
        reads = []

        class CountingAtoms(dict):
            def get(self, label, default=None):
                reads.append(label)
                return super().get(label, default)

        root.atoms = CountingAtoms(root.atoms)
        for _ in range(2):
            reads.clear()
            report = engine.explain(text)
            assert report["rows"] == 3
            assert reads.count("md5") == 1
            f_binding, a_binding = report["bindings"]
            assert (f_binding["actual_rows"], f_binding["kept_rows"]) == (1, 1)
            assert (a_binding["actual_rows"], a_binding["kept_rows"]) == (3, 3)
        # Unindexable, the conjunct still sits at F: two root tuples
        # scanned, one kept, and only its closure joined.
        report = engine.explain(text.replace("=", "like"))
        f_binding, a_binding = report["bindings"]
        assert f_binding["access"] == "member_scan"
        assert (f_binding["actual_rows"], f_binding["kept_rows"]) == (2, 1)
        assert (a_binding["actual_rows"], a_binding["kept_rows"]) == (3, 3)

    # ``like`` conjuncts: pure but not indexable, so only placement (not
    # index narrowing, which this leaves as it was) decides who sees what.
    @pytest.mark.parametrize("where, raises", [
        ("F.mtime / 0 > 1", True),
        ('F.md5 like "nosuch" and F.mtime / 0 > 1', False),
        ('F.mtime / 0 > 1 and F.md5 like "nosuch"', True),
        ('F.md5 like "aaa" and F.mtime / 0 > 1', True),
        ('F.md5 like "aaa" and F.nosuch / 0 > 1', False),
        ('A.name like "cc" and A.mtime / 0 > 1 and F.md5 like "nosuch"',
         True),
        ('A.name like "nosuch" and A.mtime / 0 > 1', False),
    ])
    def test_division_by_zero_raises_exactly_when_naive_does(
            self, engine, where, raises):
        text = ("select A from Provenance.file as F, F.input* as A where "
                + where)
        outcomes = []
        for run in (lambda: engine.execute(text, check=False),
                    lambda: reference_rows(engine, text)):
            try:
                outcomes.append([row.ref for row in run()])
            except PQLTypeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "division by zero") is raises


class TestFootprintRegression:
    def test_queries_never_mutate_node_footprints(self, engine):
        """The defaultdict leak: probing a missing label used to insert
        an empty entry into every node's atoms/edges/redges."""
        graph = engine.graph
        before = {id(n): (sorted(n.atoms), sorted(n.edges),
                          sorted(n.redges)) for n in graph.nodes()}
        for query in (
            'select F from Provenance.file as F where F.nosuch = "x"',
            "select A from Provenance.node as N, N.nosuchedge* as A",
            "select A from Provenance.node as N, N.^nosuchedge+ as A",
            "select F.missing from Provenance.file as F",
        ):
            engine.execute(query, check=False)
            reference_rows(engine, query)
        after = {id(n): (sorted(n.atoms), sorted(n.edges),
                         sorted(n.redges)) for n in graph.nodes()}
        assert before == after

    def test_catalog_probes_do_not_mutate(self, graph):
        catalog = IndexCatalog.attach(graph)
        before = {id(n): (sorted(n.atoms), sorted(n.edges))
                  for n in graph.nodes()}
        catalog.equality("nosuch").lookup("x")
        catalog.range("nosuch2").lookup(None, False, None, False)
        root = graph.named("/b")[0]
        catalog.view.closure(root, ("nosuchedge",), False)
        after = {id(n): (sorted(n.atoms), sorted(n.edges))
                 for n in graph.nodes()}
        assert before == after


class TestExplain:
    def test_report_shape(self, engine):
        report = engine.explain(
            'select F from Provenance.file as F where F.md5 = "aaa"')
        assert report["rows"] == 1
        assert set(report) == {"query", "shape", "rows", "bindings"}
        (binding,) = report["bindings"]
        assert binding["variable"] == "F"
        assert binding["access"] == "equality_index"
        assert binding["detail"]["index"] == "md5"

    def test_range_bounds_and_kept_rows(self, engine):
        strict = engine.explain(
            "select N from Provenance.node as N where N.mtime > 20")
        closed = engine.explain(
            "select N from Provenance.node as N where N.mtime >= 20")
        assert strict["bindings"][0]["detail"]["low_inc"] is False
        assert closed["bindings"][0]["detail"]["low_inc"] is True
        report = engine.explain(
            "select N from Provenance.node as N "
            'where N.mtime >= 20 and N.name = "/b"')
        (binding,) = report["bindings"]
        assert binding["access"] == "equality_index"
        assert (binding["actual_rows"], binding["kept_rows"]) == (1, 1)
        report = engine.explain(
            "select N from Provenance.node as N "
            'where N.mtime >= 20 and N.name like "/%"')
        (binding,) = report["bindings"]
        assert (binding["actual_rows"], binding["kept_rows"]) == (2, 1)

    def test_traversal_steps_noted(self, engine):
        report = engine.explain(
            "select A from Provenance.file as F, F.input* as A "
            'where F.name = "/b"')
        traverse = [b for b in report["bindings"]
                    if b["access"] == "traverse"]
        assert traverse and "steps" in traverse[0]

    def test_journal_event_emitted(self):
        obs = Observability(journal_enabled=True)
        engine = QueryEngine(OEMGraph.build(build_records()), check=False,
                             obs=obs)
        engine.explain("select F from Provenance.file as F")
        assert obs.journal.events("pql.plan_explain")


class TestCounters:
    def test_counters_reach_obs_snapshot(self):
        obs = Observability(journal_enabled=True)
        engine = QueryEngine(OEMGraph.build(build_records()), check=False,
                             obs=obs)
        engine.execute(
            'select F from Provenance.file as F where F.md5 = "aaa"')
        engine.execute("select F from Provenance.file as F")
        counters = obs.metrics.snapshot()["pql"]["counters"]
        assert counters["index_hits"] >= 1
        assert counters["index_misses"] >= 1
        assert "view_refreshes" in counters
        assert "csr_rebuilds" in counters

    def test_shared_catalog_not_double_counted(self):
        obs = Observability(journal_enabled=True)
        graph = OEMGraph.build(build_records())
        first = QueryEngine(graph, check=False, obs=obs)
        second = QueryEngine(graph, check=False, obs=obs)
        first.execute(
            'select F from Provenance.file as F where F.md5 = "aaa"')
        second.execute(
            'select F from Provenance.file as F where F.md5 = "bbb"')
        counters = obs.metrics.snapshot()["pql"]["counters"]
        assert counters["index_hits"] == first.catalog.index_hits == 2


class TestCLIExplain:
    @pytest.fixture
    def db_path(self, tmp_path):
        database = ProvenanceDatabase("cli")
        database.insert_many(build_records())
        path = tmp_path / "prov.db"
        database.save(str(path))
        return str(path)

    def test_plain_query_still_prints_rows(self, db_path, capsys):
        assert main(["query", "--db", db_path,
                     "select F.name from Provenance.file as F"]) == 0
        assert "/a" in capsys.readouterr().out
