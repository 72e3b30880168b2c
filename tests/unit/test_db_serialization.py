"""Tests for provenance-database export/import."""

import pytest

from repro.core.errors import LogCorruption
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.oem import OEMGraph
from repro.storage.database import ProvenanceDatabase


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


@pytest.fixture
def db():
    database = ProvenanceDatabase("original")
    database.insert_many([
        R(1, 0, Attr.TYPE, ObjType.FILE),
        R(1, 0, Attr.NAME, "/data"),
        R(2, 0, Attr.TYPE, ObjType.PROCESS),
        R(2, 0, Attr.INPUT, ObjectRef(1, 0)),
        R(1, 1, Attr.PREV_VERSION, ObjectRef(1, 0)),
        R(2, 0, Attr.MD5, b"\x00\x01binary"),
        R(2, 0, Attr.PID, 42),
    ])
    return database


class TestRoundtrip:
    def test_records_identical(self, db):
        clone = ProvenanceDatabase.from_bytes(db.to_bytes())
        assert sorted(r.key() for r in clone.all_records()) \
            == sorted(r.key() for r in db.all_records())

    def test_indexes_rebuilt(self, db):
        """A graph over the reloaded rows has the original's name index,
        reverse edges and versions."""
        clone = OEMGraph.build(
            ProvenanceDatabase.from_bytes(db.to_bytes()).all_records())
        original = OEMGraph.build(db.all_records())

        def readers(graph):
            return {node.ref for node in graph.node(ObjectRef(1, 0)).redges[
                "input"]}

        assert [node.ref for node in clone.named("/data")] \
            == [node.ref for node in original.named("/data")]
        # Reload groups records by pnode, so edge *order* may differ.
        assert readers(clone) == readers(original) == {ObjectRef(2, 0)}
        assert clone.versions_of(1)[-1].ref == ObjectRef(1, 1)

    def test_one_ref_instance_per_version(self, db):
        """The decoder memoises refs per stream: every record about, or
        pointing at, one version shares one ObjectRef."""
        clone = ProvenanceDatabase.from_bytes(db.to_bytes())
        rows = list(clone.all_rows())
        refs = rows[0::3] + [value for value in rows[2::3]
                             if isinstance(value, ObjectRef)]
        instances = {}
        for ref in refs:
            instances.setdefault(ref, set()).add(id(ref))
        assert set(instances) == {ObjectRef(1, 0), ObjectRef(1, 1),
                                  ObjectRef(2, 0)}
        assert all(len(ids) == 1 for ids in instances.values()), instances

    def test_one_attribute_object_per_name(self, db):
        """Attribute names are memoised per stream the same way: the
        clone's rows hold one ``str`` per distinct attribute."""
        clone = ProvenanceDatabase.from_bytes(db.to_bytes())
        attrs = list(clone.all_rows())[1::3]
        assert len(attrs) == 7
        assert len({id(attr) for attr in attrs}) == len(set(attrs)) == 6

    def test_sizes_preserved(self, db):
        clone = ProvenanceDatabase.from_bytes(db.to_bytes())
        assert clone.main_bytes == db.main_bytes
        assert clone.index_bytes == db.index_bytes

    def test_empty_database(self):
        clone = ProvenanceDatabase.from_bytes(
            ProvenanceDatabase().to_bytes())
        assert len(clone) == 0

    def test_file_roundtrip(self, db, tmp_path):
        path = tmp_path / "prov.passdb"
        written = db.save(str(path))
        assert path.stat().st_size == written
        clone = ProvenanceDatabase.load(str(path))
        assert len(clone) == len(db)


class TestCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(LogCorruption):
            ProvenanceDatabase.from_bytes(b"NOT A DATABASE")

    def test_truncated_payload_rejected(self, db):
        blob = db.to_bytes()
        with pytest.raises(LogCorruption):
            ProvenanceDatabase.from_bytes(blob[:-3])

    def test_appended_garbage_rejected(self, db):
        blob = db.to_bytes() + b"\xff\xff\xff"
        with pytest.raises(LogCorruption):
            ProvenanceDatabase.from_bytes(blob)


class TestCliIntegration:
    def test_save_then_query(self, tmp_path, capsys):
        from repro.cli import main
        export = tmp_path / "demo.passdb"
        assert main(["demo", "--scenario", "quickstart",
                     "--save", str(export)]) == 0
        capsys.readouterr()
        assert main(["query", "--db", str(export),
                     "select F.name from Provenance.file as F "
                     'where F.name like "/pass/%"']) == 0
        out = capsys.readouterr().out
        assert "/pass/result.dat" in out
