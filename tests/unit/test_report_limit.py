"""Tests for the report module and the PQL LIMIT clause."""

import pytest

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.query.report import ancestry_tree, summarize_object
from repro.storage.database import ProvenanceDatabase


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


@pytest.fixture
def db():
    database = ProvenanceDatabase()
    database.insert_many([
        R(1, 0, Attr.NAME, "/in"),
        R(1, 0, Attr.TYPE, ObjType.FILE),
        R(2, 0, Attr.NAME, "cc"),
        R(2, 0, Attr.TYPE, ObjType.PROCESS),
        R(2, 0, Attr.INPUT, ObjectRef(1, 0)),
        R(3, 0, Attr.NAME, "/out"),
        R(3, 0, Attr.TYPE, ObjType.FILE),
        R(3, 0, Attr.INPUT, ObjectRef(2, 0)),
        # A second consumer of the same input (diamond).
        R(4, 0, Attr.NAME, "ld"),
        R(4, 0, Attr.TYPE, ObjType.PROCESS),
        R(4, 0, Attr.INPUT, ObjectRef(1, 0)),
        R(3, 0, Attr.INPUT, ObjectRef(4, 0)),
    ])
    return database


@pytest.fixture
def graph(db):
    """The live graph over ``db``: later inserts reach it."""
    return QueryEngine.live([db]).graph


class TestAncestryTree:
    def test_tree_structure(self, graph):
        tree = ancestry_tree(graph, ObjectRef(3, 0))
        lines = tree.splitlines()
        assert lines[0] == "/out [FILE]"
        assert "  cc [PROCESS]" in lines
        assert "    /in [FILE]" in lines

    def test_repeated_nodes_folded(self, graph):
        tree = ancestry_tree(graph, ObjectRef(3, 0))
        assert tree.count("/in [FILE]") == 2
        assert "(see above)" in tree

    def test_depth_limit(self, db, graph):
        # Build a deep chain: 10 <- 11 <- 12 ...
        for index in range(10, 30):
            db.insert(R(index, 0, Attr.INPUT, ObjectRef(index + 1, 0)))
        tree = ancestry_tree(graph, ObjectRef(10, 0), max_depth=3)
        assert "beyond depth limit" in tree

    def test_unnamed_objects_fall_back_to_pnode(self, db, graph):
        db.insert(R(99, 0, Attr.PID, 7))
        tree = ancestry_tree(graph, ObjectRef(99, 0))
        assert "pnode 99" in tree

    def test_version_shown(self, db, graph):
        db.insert(R(3, 2, Attr.PREV_VERSION, ObjectRef(3, 0)))
        tree = ancestry_tree(graph, ObjectRef(3, 2))
        assert "v2" in tree

    def test_parents_grouped_by_edge_label(self, db, graph):
        """A version's parents come grouped by edge label (labels in
        first-arrival order), each label's in record order: records
        INPUT /in, PREV_VERSION /out, INPUT cc list as /in, cc, /out."""
        db.insert_many([
            R(3, 1, Attr.INPUT, ObjectRef(1, 0)),
            R(3, 1, Attr.PREV_VERSION, ObjectRef(3, 0)),
            R(3, 1, Attr.INPUT, ObjectRef(2, 0)),
        ])
        tree = ancestry_tree(graph, ObjectRef(3, 1), max_depth=1)
        assert tree.splitlines() == [
            "/out [FILE] v1",
            "  /in [FILE]",
            "  cc [PROCESS]",
            "    ... (1 ancestors beyond depth limit)",
            "  /out [FILE]",
            "    ... (2 ancestors beyond depth limit)"]


class TestSummarize:
    def test_summary_lists_records(self, graph):
        text = summarize_object(graph, ObjectRef(3, 0))
        assert "/out" in text
        assert Attr.INPUT in text
        assert "cc [PROCESS]" in text


class TestLimit:
    @pytest.fixture
    def engine(self, db):
        return QueryEngine.from_records(db.all_records())

    def test_limit_truncates(self, engine):
        rows = engine.execute("select N from Provenance.node as N limit 2")
        assert len(rows) == 2

    def test_limit_zero(self, engine):
        assert engine.execute(
            "select N from Provenance.node as N limit 0") == []

    def test_limit_larger_than_results(self, engine):
        rows = engine.execute(
            "select F from Provenance.file as F limit 100")
        assert len(rows) == 2

    def test_limit_after_where(self, engine):
        rows = engine.execute(
            'select F from Provenance.file as F '
            'where F.name like "%" limit 1')
        assert len(rows) == 1

    def test_negative_limit_rejected(self, engine):
        from repro.core.errors import PQLSyntaxError
        with pytest.raises(PQLSyntaxError):
            engine.execute("select F from Provenance.file as F limit -1")
