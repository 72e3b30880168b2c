"""Tests for PQL scalar functions and the Waldo query service."""

import pytest

from repro.core.errors import PQLError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine


def R(pnode, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, 0), attr, value)


@pytest.fixture
def engine():
    return QueryEngine.from_records([
        R(1, Attr.TYPE, ObjType.FILE), R(1, Attr.NAME, "/data/Report.TXT"),
        R(2, Attr.TYPE, ObjType.FILE), R(2, Attr.NAME, "/data/notes.md"),
        R(2, Attr.PID, 7),
    ])


class TestScalarFunctions:
    def test_len(self, engine):
        rows = engine.execute(
            "select len(F.name) from Provenance.file as F "
            'where F.name = "/data/notes.md"')
        assert rows == [len("/data/notes.md")]

    def test_lower_upper(self, engine):
        rows = engine.execute(
            "select lower(F.name) from Provenance.file as F "
            'where F.name like "%Report%"')
        assert rows == ["/data/report.txt"]
        rows = engine.execute(
            "select upper(F.name) from Provenance.file as F "
            'where F.name like "%notes%"')
        assert rows == ["/DATA/NOTES.MD"]

    def test_basename(self, engine):
        rows = engine.execute(
            "select basename(F.name) from Provenance.file as F "
            "order by basename(F.name)")
        assert rows == ["Report.TXT", "notes.md"]

    def test_scalar_in_where(self, engine):
        rows = engine.execute(
            "select F.name from Provenance.file as F "
            'where lower(F.name) like "%report%"')
        assert rows == ["/data/Report.TXT"]

    def test_scalar_skips_non_strings(self, engine):
        rows = engine.execute(
            "select lower(F.pid) from Provenance.file as F")
        assert rows == []

    def test_len_of_missing_attr_is_empty(self, engine):
        rows = engine.execute(
            "select len(F.argv) from Provenance.file as F")
        assert rows == []

    def test_wrong_arity_rejected(self, engine):
        with pytest.raises(PQLError):
            engine.execute("select len(F.name, F.pid) "
                           "from Provenance.file as F")

    def test_scalar_composes_with_aggregate(self, engine):
        rows = engine.execute(
            "select max(len(F.name)) from Provenance.file as F")
        assert rows == [len("/data/Report.TXT")]


class TestWaldoQueryService:
    """Queries over what Waldo drained: a live engine over its database
    (``System.query_engine()`` is the one the system hands out)."""

    def test_waldo_answers_queries(self, system):
        from tests.conftest import write_file
        write_file(system, "/pass/through-waldo", b"x")
        system.sync()
        engine = QueryEngine.live([system.tier.waldo("pass").database])
        rows = engine.execute(
            'select F.name from Provenance.file as F '
            'where F.name = "/pass/through-waldo"')
        assert rows == ["/pass/through-waldo"]

    def test_waldo_engine_is_fresh_per_call(self, system):
        from tests.conftest import write_file
        write_file(system, "/pass/a", b"1")
        system.sync()
        assert system.query("select count(F) from Provenance.file as F")
        write_file(system, "/pass/b", b"2")
        system.sync()
        counts = system.query("select count(F) from Provenance.file as F")
        assert counts[0] >= 2
