"""Tests for the provenance-aware core utilities."""

import pytest

from repro.apps.shellutils import UsageError, install
from repro.core.records import Attr
from tests.conftest import read_file, write_file
from repro.query.helpers import ancestry_refs


@pytest.fixture
def tools(system):
    return install(system)


def ancestors_names(system, path):
    system.sync()
    db = system.database("pass")
    ref = system.find_by_name(path)[0]
    names = set()
    for anc in ancestry_refs(system.query_engine().graph, ref):
        names.update(str(v) for v in db.attribute_values(anc, Attr.NAME))
    return names


class TestCp:
    def test_copies_bytes(self, system, tools):
        write_file(system, "/pass/src", b"copy me")
        system.run(tools["cp"], argv=["cp", "/pass/src", "/pass/dst"])
        assert read_file(system, "/pass/dst") == b"copy me"

    def test_copy_descends_from_source_and_cp(self, system, tools):
        write_file(system, "/pass/src", b"copy me")
        system.run(tools["cp"], argv=["cp", "/pass/src", "/pass/dst"])
        names = ancestors_names(system, "/pass/dst")
        assert "/pass/src" in names
        assert "cp" in names

    def test_bad_args(self, system, tools):
        with pytest.raises(UsageError):
            system.run(tools["cp"], argv=["cp", "/pass/one-arg"])


class TestTextTools:
    def test_grep(self, system, tools):
        write_file(system, "/pass/log",
                   b"ok line\nERROR bad\nok again\nERROR worse\n")
        system.run(tools["grep"],
                   argv=["grep", "ERROR", "/pass/log", "/pass/errors"])
        assert read_file(system, "/pass/errors") == (
            b"ERROR bad\nERROR worse")

    def test_sort(self, system, tools):
        write_file(system, "/pass/unsorted", b"pear\napple\nmango\n")
        system.run(tools["sort"],
                   argv=["sort", "/pass/unsorted", "/pass/sorted"])
        assert read_file(system, "/pass/sorted") == (
            b"apple\nmango\npear\n")

    def test_wc(self, system, tools):
        write_file(system, "/pass/text", b"one two\nthree\n")
        system.run(tools["wc"], argv=["wc", "/pass/text", "/pass/counts"])
        assert read_file(system, "/pass/counts") == (
            b"2 3 14 /pass/text\n")

    def test_cat_multiple_inputs(self, system, tools):
        write_file(system, "/pass/a", b"AA")
        write_file(system, "/pass/b", b"BB")
        system.run(tools["cat"],
                   argv=["cat", "/pass/a", "/pass/b", "/pass/ab"])
        assert read_file(system, "/pass/ab") == b"AABB"
        names = ancestors_names(system, "/pass/ab")
        assert {"/pass/a", "/pass/b"} <= names


class TestPipelines:
    def test_grep_sort_pipeline_provenance(self, system, tools):
        """grep | sort as two processes over a pipe: the sorted output's
        ancestry spans both tools and the raw log."""
        write_file(system, "/pass/raw",
                   b"b ERROR\nz ok\na ERROR\nc ok\n")
        system.run(tools["grep"],
                   argv=["grep", "ERROR", "/pass/raw", "/pass/hits"])
        system.run(tools["sort"],
                   argv=["sort", "/pass/hits", "/pass/final"])
        assert read_file(system, "/pass/final") == b"a ERROR\nb ERROR\n"
        names = ancestors_names(system, "/pass/final")
        assert {"/pass/raw", "/pass/hits", "grep", "sort"} <= names

    def test_tee_through_pipe(self, system, tools):
        def producer(sc):
            sc.write(sc.stdout, b"streamed")
            return 0

        system.register_program("/pass/bin/producer", producer)
        with system.process() as shell:
            rfd, wfd = shell.pipe()
            shell.spawn("/pass/bin/producer", stdout=wfd)
            shell.close(wfd)
            shell.spawn(tools["tee"], argv=["tee", "/pass/copy"],
                        stdin=rfd)
            shell.close(rfd)
        assert read_file(system, "/pass/copy") == b"streamed"
        names = ancestors_names(system, "/pass/copy")
        # The producer's default argv[0] is its path.
        assert "/pass/bin/producer" in names
        assert "tee" in names


class TestToyTar:
    def test_roundtrip(self, system, tools):
        with system.process() as proc:
            proc.mkdir("/pass/project")
        write_file(system, "/pass/project/one.txt", b"first file")
        write_file(system, "/pass/project/two.txt", b"second")
        system.run(tools["tar"],
                   argv=["tar", "/pass/project", "/pass/project.tar"])
        system.run(tools["untar"],
                   argv=["untar", "/pass/project.tar", "/pass/restore"])
        assert read_file(system, "/pass/restore/one.txt") == b"first file"
        assert read_file(system, "/pass/restore/two.txt") == b"second"

    def test_extracted_files_descend_from_archive(self, system, tools):
        with system.process() as proc:
            proc.mkdir("/pass/project")
        write_file(system, "/pass/project/one.txt", b"data")
        system.run(tools["tar"],
                   argv=["tar", "/pass/project", "/pass/p.tar"])
        system.run(tools["untar"],
                   argv=["untar", "/pass/p.tar", "/pass/out"])
        names = ancestors_names(system, "/pass/out/one.txt")
        assert "/pass/p.tar" in names
        assert "/pass/project/one.txt" in names   # through the archive

    def test_untar_rejects_garbage(self, system, tools):
        write_file(system, "/pass/not-a-tar", b"junk")
        with pytest.raises(UsageError):
            system.run(tools["untar"],
                       argv=["untar", "/pass/not-a-tar", "/pass/x"])
