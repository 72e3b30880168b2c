"""End-to-end tests: syscalls -> observer -> analyzer -> distributor ->
Lasagna -> Waldo -> database."""

import pytest

from repro.core.records import Attr, ObjType
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from repro.system import System
from tests.conftest import read_file, write_file


class TestBasicFlow:
    def test_write_creates_provenance(self, system):
        write_file(system, "/pass/out.txt", b"payload")
        system.sync()
        db = system.database("pass")
        refs = system.find_by_name("/pass/out.txt")
        assert refs
        records = db.records_of(refs[0].pnode)
        attrs = {r.attr for r in records}
        assert Attr.TYPE in attrs and Attr.NAME in attrs
        assert Attr.INPUT in attrs          # written by the process

    def test_file_depends_on_writing_process(self, system):
        with system.process(argv=["writer-prog"]) as proc:
            fd = proc.open("/pass/x", "w")
            proc.write(fd, b"data")
            proc.close(fd)
        system.sync()
        db = system.database("pass")
        file_ref = system.find_by_name("/pass/x")[0]
        graph = system.query_engine().graph
        parents = [node.ref for node in graph.node(file_ref).edges["input"]]
        assert parents
        # The ancestor process carries NAME=writer-prog.
        names = []
        for parent in parents:
            names.extend(db.attribute_values(parent, Attr.NAME))
        assert "writer-prog" in names

    def test_process_reading_creates_dependency(self, system):
        write_file(system, "/pass/in.txt", b"input-data")
        with system.process(argv=["transformer"]) as proc:
            fd = proc.open("/pass/in.txt", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass/out.txt", "w")
            proc.write(out, data.upper())
            proc.close(out)
        system.sync()
        out_ref = system.find_by_name("/pass/out.txt")[0]
        in_ref = system.find_by_name("/pass/in.txt")[0]
        assert in_ref in ancestry_refs(system.query_engine().graph, out_ref)

    def test_data_round_trips(self, system):
        write_file(system, "/pass/data.bin", b"\x01\x02\x03")
        assert read_file(system, "/pass/data.bin") == b"\x01\x02\x03"

    def test_baseline_records_nothing(self, baseline):
        write_file(baseline, "/pass/x", b"data")
        assert baseline.kernel.observer is None
        assert not baseline.tier


class TestPipelineProvenance:
    def test_shell_pipeline_ancestry_crosses_pipe(self, system):
        """producer | consumer > /pass/out: the output's ancestry must
        reach back through the pipe to the producer process."""
        write_file(system, "/pass/source", b"line1\nline2\n")

        def producer(sc):
            fd = sc.open("/pass/source", "r")
            data = sc.read(fd)
            sc.close(fd)
            sc.write(sc.stdout, data)

        def consumer(sc):
            data = sc.read(sc.stdin)
            fd = sc.open("/pass/out", "w")
            sc.write(fd, data.replace(b"line", b"row "))
            sc.close(fd)

        system.register_program("/pass/bin/producer", producer)
        system.register_program("/pass/bin/consumer", consumer)
        with system.process(argv=["shell"]) as shell:
            rfd, wfd = shell.pipe()
            shell.spawn("/pass/bin/producer", stdout=wfd)
            shell.close(wfd)
            shell.spawn("/pass/bin/consumer", stdin=rfd)
            shell.close(rfd)
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/out")[0]
        ancestors = ancestry_refs(system.query_engine().graph, out_ref)
        source_ref = system.find_by_name("/pass/source")[0]
        assert source_ref in ancestors
        types = set()
        for ref in ancestors:
            types.update(db.attribute_values(ref, Attr.TYPE))
        assert ObjType.PIPE in types
        assert ObjType.PROCESS in types

    def test_exec_edge_points_at_binary(self, system):
        def prog(sc):
            fd = sc.open("/pass/result", "w")
            sc.write(fd, b"done")
            sc.close(fd)

        system.register_program("/pass/bin/tool", prog)
        system.run("/pass/bin/tool")
        system.sync()
        out_ref = system.find_by_name("/pass/result")[0]
        ancestors = ancestry_refs(system.query_engine().graph, out_ref)
        binary_ref = system.find_by_name("/pass/bin/tool")[0]
        assert binary_ref in ancestors


class TestVersioning:
    def test_read_modify_write_freezes(self, system):
        write_file(system, "/pass/f", b"v0")
        with system.process() as proc:
            fd = proc.open("/pass/f", "r+")
            proc.read(fd)
            proc.write(fd, b"v1")
            proc.close(fd)
        system.sync()
        graph = system.query_engine().graph
        assert newest_ref_by_name(graph, "/pass/f").version >= 1

    def test_same_process_rewrite_does_not_freeze(self, system):
        with system.process() as proc:
            for _ in range(3):
                fd = proc.open("/pass/f", "w")
                proc.write(fd, b"data")
                proc.close(fd)
        inode = system.kernel.vfs.resolve("/pass/f")
        assert inode.version == 0

    def test_new_writer_process_freezes(self, system):
        """Independent producing runs must not merge ancestry into one
        version: a write by a different process starts a new version."""
        for _ in range(3):
            write_file(system, "/pass/f", b"data")   # new process each time
        inode = system.kernel.vfs.resolve("/pass/f")
        assert inode.version == 2

    def test_rename_keeps_provenance_and_adds_name(self, system):
        write_file(system, "/pass/a", b"data")
        with system.process() as proc:
            proc.rename("/pass/a", "/pass/b")
        system.sync()
        refs_b = system.find_by_name("/pass/b")
        refs_a = system.find_by_name("/pass/a")
        assert refs_b
        assert refs_a and refs_a[0].pnode == refs_b[0].pnode


class TestDistributorIntegration:
    def test_process_provenance_lands_only_with_descendants(self, system):
        """A process that writes nothing persistent leaves no trace in
        the database; one that writes does."""
        with system.process(argv=["idle-proc"]) as proc:
            proc.compute(0.001)
        system.sync()
        db = system.database("pass")
        assert not _find_process_by_name(db, "idle-proc")

        with system.process(argv=["busy-proc"]) as proc:
            fd = proc.open("/pass/made", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        system.sync()
        assert _find_process_by_name(system.database("pass"), "busy-proc")

    def test_scratch_file_dependency_flows_to_pass_volume(self, system):
        """Reading a non-PASS file then writing a PASS file records the
        non-PASS ancestry on the PASS volume."""
        write_file(system, "/scratch/input", b"raw")
        with system.process() as proc:
            fd = proc.open("/scratch/input", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass/output", "w")
            proc.write(out, data)
            proc.close(out)
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/output")[0]
        ancestors = ancestry_refs(system.query_engine().graph, out_ref)
        names = set()
        for ref in ancestors:
            names.update(db.attribute_values(ref, Attr.NAME))
        assert "/scratch/input" in names

    def test_two_pass_volumes(self, two_volume_system):
        system = two_volume_system
        write_file(system, "/pass2/on-second", b"hello")
        system.sync()
        ref = system.find_by_name("/pass2/on-second")[0]
        assert system.database("pass2").records_of(ref.pnode)


class TestWapInvariant:
    def test_no_data_write_without_prior_log_flush(self, system):
        """Every Lasagna data write must be preceded by its log flush."""
        write_file(system, "/pass/wap", b"z" * 100_000)
        lasagna = system.kernel.volume("pass").lasagna
        assert lasagna.log.flushes >= lasagna.data_writes > 0

    def test_md5_recorded_for_each_write(self, system):
        write_file(system, "/pass/sums", b"payload")
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/sums")[0]
        md5s = [r for r in db.records_of(ref.pnode) if r.attr == Attr.MD5]
        assert md5s


def _find_process_by_name(db, name):
    return [ref for ref in db.subjects_with_attr(Attr.TYPE)
            if ObjType.PROCESS in db.attribute_values(ref, Attr.TYPE)
            and name in db.attribute_values(ref, Attr.NAME)]
