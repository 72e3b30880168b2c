"""PQL over a live system: the paper's section 5.7 query shape."""

from repro.pql.oem import OEMNode
from tests.conftest import planned_refs, write_file


def node_names(rows):
    return {row.name for row in rows if isinstance(row, OEMNode)}


class TestLiveQueries:
    def test_paper_ancestry_query(self, system):
        """The §5.7 query: all ancestors of one output by input*."""
        write_file(system, "/pass/in.dat", b"input")
        with system.process(argv=["mkatlas"]) as proc:
            fd = proc.open("/pass/in.dat", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass/atlas-x.gif", "w")
            proc.write(out, data[::-1])
            proc.close(out)
        system.sync()
        rows = system.query("""
            select Ancestor
            from Provenance.file as Atlas
                 Atlas.input* as Ancestor
            where Atlas.name = "/pass/atlas-x.gif"
        """)
        reached = node_names(rows)
        assert "/pass/in.dat" in reached
        assert "mkatlas" in reached

    def test_descendant_taint_query(self, system):
        """Reverse traversal: everything derived from a tainted input."""
        write_file(system, "/pass/tainted", b"bad")
        with system.process(argv=["spreader"]) as proc:
            fd = proc.open("/pass/tainted", "r")
            data = proc.read(fd)
            proc.close(fd)
            for name in ("a", "b"):
                out = proc.open(f"/pass/spawn-{name}", "w")
                proc.write(out, data)
                proc.close(out)
        system.sync()
        rows = system.query("""
            select D from Provenance.file as F
                 F.^input* as D
            where F.name = "/pass/tainted"
        """)
        reached = node_names(rows)
        assert {"/pass/spawn-a", "/pass/spawn-b"} <= reached

    def test_query_engine_live_across_sync(self, system):
        """Sync no longer invalidates: the same engine object persists
        and new provenance flows into its graph incrementally."""
        write_file(system, "/pass/one", b"1")
        system.sync()
        engine = system.query_engine()
        assert system.query_engine() is engine
        assert planned_refs(engine, 'select F from Provenance.file as F '
                            'where F.name = "/pass/one"')
        write_file(system, "/pass/two", b"2")
        system.sync()
        assert system.query_engine() is engine
        assert planned_refs(engine, 'select F from Provenance.file as F '
                            'where F.name = "/pass/two"')

    def test_count_processes(self, system):
        write_file(system, "/pass/x", b"x")
        system.sync()
        count = system.query(
            "select count(P) from Provenance.process as P")
        assert count[0] >= 1

    def test_identity_atoms_shared_across_versions(self, system):
        """After a freeze, querying by name must still find the newest
        version node."""
        write_file(system, "/pass/v", b"v0")
        with system.process() as proc:
            fd = proc.open("/pass/v", "r+")
            proc.read(fd)
            proc.write(fd, b"v1")       # freeze -> version 1
            proc.close(fd)
        system.sync()
        rows = system.query(
            'select F from Provenance.file as F where F.name = "/pass/v"')
        versions = {row.ref.version for row in rows}
        assert 1 in versions
