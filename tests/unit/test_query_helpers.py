"""Unit tests for the high-level query helpers."""

import pytest

from repro.core.errors import UnknownPnode
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.query.helpers import (
    ancestry_refs,
    descendant_refs,
    describe,
    newest_ref_by_name,
    provenance_diff,
)
from repro.storage.database import ProvenanceDatabase


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


class TestAncestry:
    def test_transitive_closure(self, db):
        ancestry = ancestry_refs([db], ObjectRef(4, 0))
        assert ancestry == {ObjectRef(3, 0), ObjectRef(1, 0),
                            ObjectRef(2, 0)}

    def test_version_chain_included(self, db):
        ancestry = ancestry_refs([db], ObjectRef(4, 1))
        assert ObjectRef(4, 0) in ancestry
        assert ObjectRef(1, 0) in ancestry

    def test_leaf_has_empty_ancestry(self, db):
        assert ancestry_refs([db], ObjectRef(1, 0)) == set()

    def test_multi_database_merge(self, db):
        other = ProvenanceDatabase("other")
        other.insert(R(1, 0, Attr.INPUT, ObjectRef(99, 0)))
        ancestry = ancestry_refs([db, other], ObjectRef(4, 0))
        assert ObjectRef(99, 0) in ancestry


class TestDescendants:
    def test_taint_flow(self, db):
        tainted = descendant_refs([db], ObjectRef(1, 0))
        assert ObjectRef(3, 0) in tainted
        assert ObjectRef(4, 0) in tainted

    def test_taint_crosses_versions(self, db):
        tainted = descendant_refs([db], ObjectRef(4, 0))
        assert ObjectRef(4, 1) in tainted


class TestNewestRefByName:
    def test_picks_latest_version(self, db):
        ref = newest_ref_by_name([db], "/out")
        assert ref == ObjectRef(4, 1)

    def test_unknown_name_raises(self, db):
        with pytest.raises(UnknownPnode):
            newest_ref_by_name([db], "/nonexistent")


class TestDescribe:
    def test_collects_version_records_and_identity(self, db):
        info = describe([db], ObjectRef(4, 1))
        assert info["attrs"][Attr.NAME] == ["/out"]
        assert Attr.PREV_VERSION in info["attrs"]


class TestProvenanceDiff:
    def test_disjoint_and_common(self, db):
        # Give version 1 an extra, private ancestor.
        db.insert(R(4, 1, Attr.INPUT, ObjectRef(7, 0)))
        diff = provenance_diff([db], ObjectRef(4, 0), ObjectRef(4, 1))
        assert ObjectRef(7, 0) in diff["only_right"]
        assert ObjectRef(3, 0) in diff["common"]
        assert diff["only_left"] == set()

    def test_identical_objects(self, db):
        diff = provenance_diff([db], ObjectRef(4, 0), ObjectRef(4, 0))
        assert not diff["only_left"] and not diff["only_right"]


class TestDatabaseIndexes:
    def test_subjects_with_attr(self, db):
        procs = db.subjects_with_attr(Attr.TYPE)
        assert ObjectRef(3, 0) in procs

    def test_records_of_version_filters(self, db):
        v1_records = db.records_of_version(ObjectRef(4, 1))
        assert all(r.subject.version == 1 for r in v1_records)

    def test_max_version(self, db):
        assert db.max_version(4) == 1
        assert db.max_version(999) is None

    def test_referencing(self, db):
        backrefs = db.referencing(ObjectRef(3, 0))
        assert (ObjectRef(4, 0), Attr.INPUT) in backrefs

    def test_reverse_edges_under_several_attributes(self):
        """One target referenced five ways, one subject twice: worked
        by hand, in insertion order, duplicates kept."""
        target = ObjectRef(10, 2)
        database = ProvenanceDatabase()
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
        assert database.referencing(target) == [
            (ObjectRef(11, 0), Attr.INPUT),
            (ObjectRef(12, 0), Attr.FORKPARENT),
            (ObjectRef(10, 3), Attr.PREV_VERSION),
            (ObjectRef(11, 0), Attr.BRANCH_OF),
            (ObjectRef(13, 1), Attr.EXEC),
            (ObjectRef(11, 0), Attr.INPUT)]
        assert database.descendants(target) == [
            ObjectRef(11, 0), ObjectRef(12, 0), ObjectRef(10, 3),
            ObjectRef(13, 1), ObjectRef(11, 0)]
        assert database.descendants(
            target, frozenset({Attr.EXEC, Attr.BRANCH_OF})) == [
            ObjectRef(11, 0), ObjectRef(13, 1)]
        assert database.referencing(ObjectRef(10, 1)) == [
            (ObjectRef(11, 0), Attr.INPUT)]
        assert database.referencing(ObjectRef(10, 0)) == []
        assert database.descendants(ObjectRef(10, 0)) == []

    def test_sizes_accumulate(self, db):
        sizes = db.sizes()
        assert sizes["database"] > 0
        assert sizes["indexes"] > 0
        assert sizes["total"] == sizes["database"] + sizes["indexes"]
