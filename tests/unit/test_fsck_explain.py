"""Tests for passfsck and explain_dependency."""

import pytest

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.oem import OEMGraph
from repro.query.helpers import explain_dependency
from repro.storage.database import ProvenanceDatabase
from repro.storage.fsck import fsck


def findings(report, check):
    return [finding for finding in report.findings if finding.check == check]


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


def healthy_db():
    db = ProvenanceDatabase()
    db.insert_many([
        R(1, 0, Attr.TYPE, ObjType.FILE),
        R(1, 0, Attr.NAME, "/in"),
        R(2, 0, Attr.TYPE, ObjType.PROCESS),
        R(2, 0, Attr.INPUT, ObjectRef(1, 0)),
        R(3, 0, Attr.TYPE, ObjType.FILE),
        R(3, 0, Attr.INPUT, ObjectRef(2, 0)),
        R(3, 1, Attr.PREV_VERSION, ObjectRef(3, 0)),
        R(3, 1, Attr.INPUT, ObjectRef(2, 0)),
    ])
    return db


class TestFsckClean:
    def test_healthy_store_is_clean(self):
        report = fsck([healthy_db()])
        assert report.clean, str(report.findings)
        assert report.objects_checked == 3
        assert report.records_checked == 8

    def test_live_system_is_clean(self, system):
        from tests.conftest import write_file
        write_file(system, "/pass/a", b"1")
        with system.process() as proc:
            fd = proc.open("/pass/a", "r+")
            proc.read(fd)
            proc.write(fd, b"2")
            proc.close(fd)
        system.sync()
        report = fsck(system.databases())
        assert report.clean, str(report.findings)

    def test_str_form(self):
        report = fsck([healthy_db()])
        assert "clean" in str(report)


class TestFsckFindings:
    def test_cycle_detected(self):
        db = ProvenanceDatabase()
        db.insert_many([
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(2, 0, Attr.TYPE, ObjType.FILE),
            R(1, 0, Attr.INPUT, ObjectRef(2, 0)),
            R(2, 0, Attr.INPUT, ObjectRef(1, 0)),
        ])
        report = fsck([db])
        assert findings(report, "cycle")

    def test_missing_prev_version(self):
        db = healthy_db()
        db.insert(R(5, 2, Attr.TYPE, ObjType.FILE))
        report = fsck([db])
        assert findings(report, "version-chain")
        assert findings(report, "version-gap")

    def test_wrong_prev_version_target(self):
        db = ProvenanceDatabase()
        db.insert_many([
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(1, 1, Attr.PREV_VERSION, ObjectRef(1, 0)),
            R(1, 2, Attr.PREV_VERSION, ObjectRef(1, 0)),   # skips v1!
        ])
        report = fsck([db])
        assert any("expected" in str(finding)
                   for finding in findings(report, "version-chain"))

    def test_dangling_reference(self):
        db = healthy_db()
        db.insert(R(3, 1, Attr.INPUT, ObjectRef(999, 0)))
        report = fsck([db])
        assert findings(report, "dangling-ref")

    def test_future_version_reference(self):
        db = healthy_db()
        db.insert(R(3, 1, Attr.INPUT, ObjectRef(1, 7)))
        report = fsck([db])
        assert findings(report, "dangling-ref")

    def test_missing_type(self):
        db = ProvenanceDatabase()
        db.insert_many([
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(9, 0, Attr.INPUT, ObjectRef(1, 0)),    # untyped subject
        ])
        report = fsck([db])
        assert findings(report, "missing-type")

    def test_framing_leak(self):
        db = healthy_db()
        db.insert(R(1, 0, Attr.BEGINTXN, 3))
        report = fsck([db])
        assert findings(report, "framing-leak")


class TestExplainDependency:
    def test_single_path(self):
        db = healthy_db()
        graph = OEMGraph.build(db.all_records())
        paths = explain_dependency(graph, ObjectRef(3, 0), ObjectRef(1, 0))
        assert paths == [[ObjectRef(3, 0), ObjectRef(2, 0),
                          ObjectRef(1, 0)]]

    def test_multiple_paths_shortest_first(self):
        db = healthy_db()
        # Add a direct shortcut 3 -> 1.
        db.insert(R(3, 0, Attr.INPUT, ObjectRef(1, 0)))
        graph = OEMGraph.build(db.all_records())
        paths = explain_dependency(graph, ObjectRef(3, 0), ObjectRef(1, 0))
        assert paths[0] == [ObjectRef(3, 0), ObjectRef(1, 0)]
        assert len(paths) >= 2

    def test_no_dependency(self):
        db = healthy_db()
        graph = OEMGraph.build(db.all_records())
        paths = explain_dependency(graph, ObjectRef(1, 0), ObjectRef(3, 0))
        assert paths == []

    def test_max_paths_respected(self):
        db = ProvenanceDatabase()
        db.insert(R(1, 0, Attr.TYPE, ObjType.FILE))
        # Many parallel 2-hop routes from 100 to 1.
        for middle in range(10, 20):
            db.insert(R(100, 0, Attr.INPUT, ObjectRef(middle, 0)))
            db.insert(R(middle, 0, Attr.INPUT, ObjectRef(1, 0)))
        graph = OEMGraph.build(db.all_records())
        paths = explain_dependency(graph, ObjectRef(100, 0),
                                   ObjectRef(1, 0), max_paths=3)
        assert len(paths) == 3

    def test_live_system_explanation(self, system):
        """The malware question: why is the doc tainted by the codec?"""
        from tests.conftest import write_file
        write_file(system, "/pass/codec.bin", b"MALWARE")
        with system.process(argv=["codec-run"]) as proc:
            fd = proc.open("/pass/codec.bin", "r")
            payload = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass/infected.doc", "w")
            proc.write(out, payload)
            proc.close(out)
        system.sync()
        db = system.database("pass")
        doc = system.find_by_name("/pass/infected.doc")[0]
        codec = system.find_by_name("/pass/codec.bin")[0]
        paths = explain_dependency(system.query_engine().graph, doc, codec)
        assert paths
        middle_names = set()
        for path in paths:
            for ref in path[1:-1]:
                middle_names.update(
                    str(v) for v in db.attribute_values(ref, Attr.NAME))
        assert "codec-run" in middle_names
