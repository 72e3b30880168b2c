"""Unit tests for the high-level query helpers."""

import pytest

from repro.core.errors import UnknownPnode
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.query.helpers import (
    ANCESTRY_LABELS,
    ancestry_refs,
    descendant_refs,
    describe,
    neighbours,
    newest_ref_by_name,
    provenance_diff,
)
from repro.query.report import ancestry_tree
from repro.storage.database import ProvenanceDatabase
from tests.conftest import write_file


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


@pytest.fixture
def db():
    """out(4) <- proc(3) <- {in1(1), in2(2)}; out has versions 0 and 1."""
    database = ProvenanceDatabase()
    database.insert_many([
        R(1, 0, Attr.NAME, "/in1"),
        R(2, 0, Attr.NAME, "/in2"),
        R(3, 0, Attr.TYPE, ObjType.PROCESS),
        R(3, 0, Attr.INPUT, ObjectRef(1, 0)),
        R(3, 0, Attr.INPUT, ObjectRef(2, 0)),
        R(4, 0, Attr.NAME, "/out"),
        R(4, 0, Attr.INPUT, ObjectRef(3, 0)),
        R(4, 1, Attr.PREV_VERSION, ObjectRef(4, 0)),
    ])
    return database


@pytest.fixture
def graph(db):
    """The live graph over ``db``: later inserts reach it."""
    return QueryEngine.live([db]).graph


class TestAncestry:
    def test_transitive_closure(self, graph):
        ancestry = ancestry_refs(graph, ObjectRef(4, 0))
        assert ancestry == {ObjectRef(3, 0), ObjectRef(1, 0),
                            ObjectRef(2, 0)}

    def test_version_chain_included(self, graph):
        ancestry = ancestry_refs(graph, ObjectRef(4, 1))
        assert ObjectRef(4, 0) in ancestry
        assert ObjectRef(1, 0) in ancestry

    def test_leaf_has_empty_ancestry(self, graph):
        assert ancestry_refs(graph, ObjectRef(1, 0)) == set()

    def test_multi_database_merge(self, db):
        other = ProvenanceDatabase("other")
        other.insert(R(1, 0, Attr.INPUT, ObjectRef(99, 0)))
        graph = QueryEngine.live([db, other]).graph
        ancestry = ancestry_refs(graph, ObjectRef(4, 0))
        assert ObjectRef(99, 0) in ancestry


class TestDescendants:
    def test_taint_flow(self, graph):
        tainted = descendant_refs(graph, ObjectRef(1, 0))
        assert ObjectRef(3, 0) in tainted
        assert ObjectRef(4, 0) in tainted

    def test_taint_crosses_versions(self, graph):
        tainted = descendant_refs(graph, ObjectRef(4, 0))
        assert ObjectRef(4, 1) in tainted


class TestNewestRefByName:
    def test_picks_latest_version(self, graph):
        ref = newest_ref_by_name(graph, "/out")
        assert ref == ObjectRef(4, 1)

    def test_unknown_name_raises(self, graph):
        with pytest.raises(UnknownPnode):
            newest_ref_by_name(graph, "/nonexistent")


class TestDescribe:
    def test_collects_version_records_and_identity(self, graph):
        info = describe(graph, ObjectRef(4, 1))
        assert info["attrs"][Attr.NAME] == ["/out"]
        assert Attr.PREV_VERSION in info["attrs"]


class TestProvenanceDiff:
    def test_disjoint_and_common(self, db, graph):
        # Give version 1 an extra, private ancestor.
        db.insert(R(4, 1, Attr.INPUT, ObjectRef(7, 0)))
        diff = provenance_diff(graph, ObjectRef(4, 0), ObjectRef(4, 1))
        assert ObjectRef(7, 0) in diff["only_right"]
        assert ObjectRef(3, 0) in diff["common"]
        assert diff["only_left"] == set()

    def test_identical_objects(self, graph):
        diff = provenance_diff(graph, ObjectRef(4, 0), ObjectRef(4, 0))
        assert not diff["only_left"] and not diff["only_right"]


class TestDatabaseIndexes:
    def test_subjects_with_attr(self, db):
        procs = db.subjects_with_attr(Attr.TYPE)
        assert ObjectRef(3, 0) in procs

    def test_records_of_version_filters(self, db):
        v1_records = db.records_of_version(ObjectRef(4, 1))
        assert all(r.subject.version == 1 for r in v1_records)

    def test_sizes_accumulate(self, db):
        sizes = db.sizes()
        assert sizes["database"] > 0
        assert sizes["indexes"] > 0
        assert sizes["total"] == sizes["database"] + sizes["indexes"]


class TestGraphIndexes:
    """What the helpers read instead of database indexes."""

    def test_max_version(self, graph):
        assert graph.versions_of(4)[-1].ref == ObjectRef(4, 1)
        assert graph.versions_of(999) == []

    def test_referencing(self, graph):
        assert graph.node(ObjectRef(4, 0)) in graph.node(
            ObjectRef(3, 0)).redges["input"]

    def test_reverse_edges_under_several_attributes(self):
        """One target referenced five ways, one subject twice: worked
        by hand, grouped by label (labels in first-arrival order), each
        label's sources in insertion order, duplicates kept."""
        target = ObjectRef(10, 2)
        database = ProvenanceDatabase()
        graph = QueryEngine.live([database]).graph
        database.insert_many([
            R(11, 0, Attr.INPUT, target),
            R(12, 0, Attr.FORKPARENT, target),
            R(10, 3, Attr.PREV_VERSION, target),
            R(11, 0, Attr.BRANCH_OF, target),
            R(13, 1, Attr.EXEC, target),
            R(11, 0, Attr.INPUT, ObjectRef(10, 1)),
            R(12, 0, Attr.NAME, "not-a-reference"),
            R(11, 0, Attr.INPUT, target),
        ])
        redges = {label: [node.ref for node in sources]
                  for label, sources in graph.node(target).redges.items()}
        assert redges == {
            "input": [ObjectRef(11, 0), ObjectRef(11, 0)],
            "forkparent": [ObjectRef(12, 0)],
            "prev_version": [ObjectRef(10, 3)],
            "branch_of": [ObjectRef(11, 0)],
            "exec": [ObjectRef(13, 1)]}
        # Record order was 11, 12, 10:3, 13, 11: the graph groups the
        # second INPUT with the first.
        assert neighbours(graph, target, ANCESTRY_LABELS, reverse=True) == [
            ObjectRef(11, 0), ObjectRef(11, 0), ObjectRef(12, 0),
            ObjectRef(10, 3), ObjectRef(13, 1)]
        assert neighbours(graph, target, frozenset({"exec", "branch_of"}),
                          reverse=True) == [ObjectRef(11, 0),
                                            ObjectRef(13, 1)]
        assert [node.ref for node in graph.node(
            ObjectRef(10, 1)).redges["input"]] == [ObjectRef(11, 0)]
        assert graph.node(ObjectRef(10, 0)) is None
        assert neighbours(graph, ObjectRef(10, 0), ANCESTRY_LABELS,
                          reverse=True) == []


class TestAcrossVolumes:
    def test_ancestry_crosses_pass_volumes(self, two_volume_system):
        """A process reads ``/pass/a`` and writes ``/pass2/b``: the one
        live graph federates both volumes' databases, so b's ancestry
        reaches a and the process, and the tree names both."""
        system = two_volume_system
        write_file(system, "/pass/a", b"input")
        with system.process(argv=["copier"]) as proc:
            fd = proc.open("/pass/a", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass2/b", "w")
            proc.write(out, data)
            proc.close(out)
        system.sync()
        a_ref = system.find_by_name("/pass/a")[0]
        assert system.database("pass").records_of(a_ref.pnode)
        b_ref = system.find_by_name("/pass2/b")[0]
        assert system.database("pass2").records_of(b_ref.pnode)
        (copier,) = system.find_by_name("copier")
        graph = system.query_engine().graph
        ancestry = ancestry_refs(graph, newest_ref_by_name(graph, "/pass2/b"))
        assert a_ref in ancestry and copier in ancestry
        tree = ancestry_tree(graph, newest_ref_by_name(graph, "/pass2/b"))
        assert tree.splitlines()[:3] == [
            "/pass2/b [FILE]", "  copier [PROCESS]", "    /pass/a [FILE]"]
