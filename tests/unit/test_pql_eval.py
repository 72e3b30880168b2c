"""Unit tests for the PQL evaluator over a hand-built provenance graph.

Graph fixture (a miniature workflow)::

    out.gif --input--> convert(P) --input--> mid.dat --input--> align(P)
                                                     \\--input--> raw2.dat
    align --input--> raw.dat
    convert --forkparent--> shell(P)
    raw.dat, raw2.dat, mid.dat, out.gif: files; align, convert, shell: processes
"""

import pytest

from repro.core.errors import PQLError, PQLNameError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.oem import OEMNode
from tests.conftest import reference_rows


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


RAW, RAW2, MID, OUT = 1, 2, 3, 4
ALIGN, CONVERT, SHELL = 10, 11, 12


@pytest.fixture
def engine():
    records = [
        R(RAW, 0, Attr.TYPE, ObjType.FILE),
        R(RAW, 0, Attr.NAME, "/data/raw.dat"),
        R(RAW2, 0, Attr.TYPE, ObjType.FILE),
        R(RAW2, 0, Attr.NAME, "/data/raw2.dat"),
        R(MID, 0, Attr.TYPE, ObjType.FILE),
        R(MID, 0, Attr.NAME, "/data/mid.dat"),
        R(OUT, 0, Attr.TYPE, ObjType.FILE),
        R(OUT, 0, Attr.NAME, "/data/out.gif"),
        R(ALIGN, 0, Attr.TYPE, ObjType.PROCESS),
        R(ALIGN, 0, Attr.NAME, "align"),
        R(ALIGN, 0, Attr.PID, 100),
        R(CONVERT, 0, Attr.TYPE, ObjType.PROCESS),
        R(CONVERT, 0, Attr.NAME, "convert"),
        R(CONVERT, 0, Attr.PID, 101),
        R(SHELL, 0, Attr.TYPE, ObjType.PROCESS),
        R(SHELL, 0, Attr.NAME, "shell"),
        R(ALIGN, 0, Attr.INPUT, ObjectRef(RAW, 0)),
        R(MID, 0, Attr.INPUT, ObjectRef(ALIGN, 0)),
        R(MID, 0, Attr.INPUT, ObjectRef(RAW2, 0)),
        R(CONVERT, 0, Attr.INPUT, ObjectRef(MID, 0)),
        R(OUT, 0, Attr.INPUT, ObjectRef(CONVERT, 0)),
        R(CONVERT, 0, Attr.FORKPARENT, ObjectRef(SHELL, 0)),
    ]
    return QueryEngine.from_records(records)


def names(rows):
    out = set()
    for row in rows:
        if isinstance(row, OEMNode):
            out.add(row.name)
        else:
            out.add(row)
    return out


class TestFromBindings:
    def test_root_member_iteration(self, engine):
        rows = engine.execute("select F.name from Provenance.file as F")
        assert names(rows) == {"/data/raw.dat", "/data/raw2.dat",
                               "/data/mid.dat", "/data/out.gif"}

    def test_process_member(self, engine):
        rows = engine.execute("select P.name from Provenance.process as P")
        assert names(rows) == {"align", "convert", "shell"}

    def test_node_member_covers_everything(self, engine):
        rows = engine.execute("select count(N) from Provenance.node as N")
        assert rows == [7]

    def test_unknown_member_is_empty(self, engine):
        assert engine.execute("select X from Provenance.martian as X") == []

    def test_unbound_variable_raises(self, engine):
        with pytest.raises(PQLNameError):
            engine.execute("select B from Nope.input as B")


class TestPathTraversal:
    def test_single_step(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input as A "
            'where F.name = "/data/out.gif"')
        assert names(rows) == {"convert"}

    def test_star_closure_is_full_ancestry(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input* as A "
            'where F.name = "/data/out.gif"')
        # input* includes the starting node itself (zero repetitions).
        assert names(rows) == {"/data/out.gif", "convert", "/data/mid.dat",
                               "align", "/data/raw.dat", "/data/raw2.dat"}

    def test_plus_excludes_self(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input+ as A "
            'where F.name = "/data/out.gif"')
        assert "/data/out.gif" not in names(rows)

    def test_question_is_self_or_one(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input? as A "
            'where F.name = "/data/out.gif"')
        assert names(rows) == {"/data/out.gif", "convert"}

    def test_bounded_range(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input{2,3} as A "
            'where F.name = "/data/out.gif"')
        assert names(rows) == {"/data/mid.dat", "align", "/data/raw2.dat"}

    def test_reverse_traversal_finds_descendants(self, engine):
        rows = engine.execute(
            "select D from Provenance.file as F F.^input* as D "
            'where F.name = "/data/raw.dat"')
        assert names(rows) == {"/data/raw.dat", "align", "/data/mid.dat",
                               "convert", "/data/out.gif"}

    def test_alternation_crosses_fork_edges(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F "
            "F.(input|forkparent)* as A "
            'where F.name = "/data/out.gif"')
        assert "shell" in names(rows)

    def test_plain_input_star_does_not_cross_fork(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F F.input* as A "
            'where F.name = "/data/out.gif"')
        assert "shell" not in names(rows)


class TestWhere:
    def test_equality_on_atom(self, engine):
        rows = engine.execute(
            'select F from Provenance.file as F where F.name = "/data/mid.dat"')
        assert len(rows) == 1

    def test_inequality(self, engine):
        rows = engine.execute(
            'select F.name from Provenance.file as F '
            'where F.name != "/data/mid.dat"')
        assert "/data/mid.dat" not in names(rows)
        assert len(rows) == 3

    def test_numeric_comparison(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P where P.pid >= 101")
        assert names(rows) == {"convert"}

    def test_and(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P "
            'where P.pid >= 100 and P.name = "align"')
        assert names(rows) == {"align"}

    def test_or(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P "
            'where P.name = "align" or P.name = "shell"')
        assert names(rows) == {"align", "shell"}

    def test_not(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P "
            'where not P.name = "shell"')
        assert names(rows) == {"align", "convert"}

    def test_bare_path_is_existence_test(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P where P.pid")
        assert names(rows) == {"align", "convert"}   # shell has no pid

    def test_node_equality(self, engine):
        rows = engine.execute(
            "select F.name from Provenance.file as F, Provenance.file as G "
            'where F = G and G.name = "/data/mid.dat"')
        assert names(rows) == {"/data/mid.dat"}

    def test_type_mismatch_comparison_is_false(self, engine):
        rows = engine.execute(
            'select P from Provenance.process as P where P.pid = "100"')
        assert rows == []


class TestAggregates:
    def test_count_over_whole_query(self, engine):
        assert engine.execute(
            "select count(F) from Provenance.file as F") == [4]

    def test_count_per_tuple(self, engine):
        rows = engine.execute(
            "select F.name, count(F.input) from Provenance.file as F "
            'where F.name = "/data/mid.dat"')
        assert rows == [("/data/mid.dat", 2)]

    def test_sum_avg_min_max(self, engine):
        assert engine.execute(
            "select sum(P.pid) from Provenance.process as P") == [201]
        assert engine.execute(
            "select min(P.pid) from Provenance.process as P") == [100]
        assert engine.execute(
            "select max(P.pid) from Provenance.process as P") == [101]
        assert engine.execute(
            "select avg(P.pid) from Provenance.process as P") == [100.5]

    def test_count_in_where(self, engine):
        rows = engine.execute(
            "select F.name from Provenance.file as F "
            "where count(F.input) > 1")
        assert names(rows) == {"/data/mid.dat"}

    def test_unknown_function_raises(self, engine):
        with pytest.raises(PQLError):
            engine.execute("select frob(F) from Provenance.file as F")


class TestSubqueries:
    def test_in_subquery(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P "
            "where P.name in (select F.name from Provenance.file as F)")
        assert rows == []

    def test_correlated_exists(self, engine):
        rows = engine.execute(
            "select F.name from Provenance.file as F "
            "where exists (select P from F.input as P "
            '              where P.name = "convert")')
        assert names(rows) == {"/data/out.gif"}

    def test_in_with_node_values(self, engine):
        rows = engine.execute(
            "select F.name from Provenance.file as F "
            "where F in (select G.input from Provenance.file as G)")
        # The only file that is a *direct* input of another file is
        # raw2.dat (mid.dat feeds a process, not a file).
        assert names(rows) == {"/data/raw2.dat"}


class TestSelectShapes:
    def test_multi_item_tuples(self, engine):
        rows = engine.execute(
            "select P.name, P.pid from Provenance.process as P "
            "where P.pid > 0")
        assert set(rows) == {("align", 100), ("convert", 101)}

    def test_distinct_dedup(self, engine):
        # Two bindings reaching the same ancestor dedup into one row.
        rows = engine.execute(
            "select A.name from Provenance.file as F F.input* as A")
        assert len(rows) == len(set(rows))

    def test_arithmetic_in_select(self, engine):
        rows = engine.execute(
            "select P.pid + 1 from Provenance.process as P "
            'where P.name = "align"')
        assert rows == [101]

    def test_empty_result(self, engine):
        assert engine.execute(
            'select F from Provenance.file as F where F.name = "nope"') == []

    def test_execute_refs(self, engine):
        refs = engine.execute_refs(
            'select F from Provenance.file as F where F.name = "/data/mid.dat"')
        assert refs == [ObjectRef(MID, 0)]


class TestBareVariableProjection:
    """``select V``: the row is the bound node, taken without the
    generic value-set machinery."""

    FILES = "select F from Provenance.file as F"

    def test_rows_are_the_bound_nodes_in_binding_order(self, engine):
        rows = engine.execute(self.FILES)
        assert all(isinstance(row, OEMNode) for row in rows)
        assert rows == reference_rows(engine, self.FILES)
        assert rows == [row for row, _ in engine.execute(
            "select F, F.name from Provenance.file as F")]

    def test_limit(self, engine):
        rows = engine.execute(self.FILES)
        assert len(rows) == 4
        assert engine.execute(self.FILES + " limit 0", check=False) == []
        assert engine.execute(self.FILES + " limit 2") == rows[:2]
        assert engine.execute(self.FILES + " limit 9") == rows

    def test_distinct_and_order(self, engine):
        rows = engine.execute(
            "select A from Provenance.file as F, F.input* as A")
        assert len(rows) == len({row.ref for row in rows}) == 6
        ordered = engine.execute(self.FILES + " order by F.name desc limit 2")
        assert [row.name for row in ordered] == ["/data/raw2.dat",
                                                 "/data/raw.dat"]

    def test_unbound_variable_raises_positioned(self, engine):
        text = "select  G from Provenance.file as F"
        for run in (lambda: engine.execute(text, check=False),
                    lambda: reference_rows(engine, text)):
            with pytest.raises(PQLNameError, match="unbound variable 'G'") \
                    as info:
                run()
            assert (info.value.line, info.value.column) == (1, 8)
        # No tuple, no evaluation: an empty join raises nothing.
        assert engine.execute("select G from Provenance.martian as F",
                              check=False) == []

    def test_subquery_projects_the_outer_variable(self, engine):
        rows = engine.execute(
            "select P.name from Provenance.process as P where P in "
            "(select A from Provenance.file as F, F.input as A)")
        assert set(rows) == {"align", "convert"}
