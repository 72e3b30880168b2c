"""Full-stack concurrency: interleaved processes and cycle avoidance.

Section 5.4: "cycles can occur when multiple processes are concurrently
reading and writing the same files."  These tests run *interleaved*
generator programs through the real syscall layer and verify that the
database graph stays acyclic and versions record the interleaving.
"""

from repro.core.records import Attr
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from tests.conftest import write_file


def db_edges(db):
    edges = {}
    for record in db.all_records():
        if record.is_ancestry:
            edges.setdefault(record.subject, []).append(record.value)
    return edges


def assert_acyclic(db):
    edges = db_edges(db)
    state = {}

    def visit(node):
        state[node] = 1
        for child in edges.get(node, ()):
            code = state.get(child, 0)
            assert code != 1, f"cycle through {child}"
            if code == 0:
                visit(child)
        state[node] = 2

    for node in list(edges):
        if state.get(node, 0) == 0:
            visit(node)


class TestInterleavedReadersWriters:
    def test_pingpong_two_processes_two_files(self, system):
        """P: read A, write B; Q: read B, write A -- interleaved at
        syscall granularity for several rounds."""
        write_file(system, "/pass/A", b"seed-a")
        write_file(system, "/pass/B", b"seed-b")

        def pingpong(source, target):
            def program(sc):
                for _ in range(4):
                    fd = sc.open(source, "r")
                    data = sc.read(fd)
                    sc.close(fd)
                    yield
                    fd = sc.open(target, "w")
                    sc.write(fd, data + b"!")
                    sc.close(fd)
                    yield
                return 0
            return program

        kernel = system.kernel
        kernel.register_program("/pass/bin/p", pingpong("/pass/A",
                                                        "/pass/B"))
        kernel.register_program("/pass/bin/q", pingpong("/pass/B",
                                                        "/pass/A"))
        kernel.start("/pass/bin/p")
        kernel.start("/pass/bin/q")
        kernel.schedule()
        system.sync()
        db = system.database("pass")
        assert_acyclic(db)
        # Both files must have been versioned by the back-and-forth.
        graph = system.query_engine().graph
        for name in ("/pass/A", "/pass/B"):
            assert newest_ref_by_name(graph, name).version >= 1

    def test_many_writers_single_file(self, system):
        write_file(system, "/pass/shared", b"v0")

        def writer(tag):
            def program(sc):
                for _ in range(3):
                    fd = sc.open("/pass/shared", "r+")
                    sc.read(fd)
                    yield
                    sc.write(fd, tag)
                    sc.close(fd)
                    yield
                return 0
            return program

        kernel = system.kernel
        for index in range(4):
            kernel.register_program(f"/pass/bin/w{index}",
                                    writer(f"w{index}".encode()))
            kernel.start(f"/pass/bin/w{index}")
        kernel.schedule()
        system.sync()
        db = system.database("pass")
        assert_acyclic(db)
        # Multiple writers + read-modify-write cycles force versioning.
        assert newest_ref_by_name(system.query_engine().graph,
                                  "/pass/shared").version >= 4

    def test_version_history_chain_complete(self, system):
        """Every version > 0 in the database links to its predecessor."""
        write_file(system, "/pass/f", b"0")
        for round_no in range(3):
            with system.process(argv=[f"editor{round_no}"]) as proc:
                fd = proc.open("/pass/f", "r+")
                proc.read(fd)
                proc.write(fd, b"x")
                proc.close(fd)
        system.sync()
        db = system.database("pass")
        ref = newest_ref_by_name(system.query_engine().graph, "/pass/f")
        top = ref.version
        assert top >= 3
        for version in range(1, top + 1):
            from repro.core.pnode import ObjectRef
            prev = [r for r in db.records_of_version(
                        ObjectRef(ref.pnode, version))
                    if r.attr == Attr.PREV_VERSION]
            assert prev, f"version {version} lacks a PREV_VERSION link"
            assert prev[0].value == ObjectRef(ref.pnode, version - 1)

    def test_pipeline_with_interleaved_stages(self, system):
        """A generator pipeline where the consumer starts before the
        producer finishes (true streaming through the pipe)."""
        results = {}

        def producer(sc):
            for index in range(5):
                sc.write(sc.stdout, f"chunk{index};".encode())
                yield
            return 0

        def consumer(sc):
            collected = b""
            while True:
                if sc.pipe_available(sc.stdin):
                    collected += sc.read(sc.stdin)
                    yield
                else:
                    fdesc = sc.proc.lookup_fd(sc.stdin)
                    if fdesc.pipe.writers == 0:
                        break
                    yield
            fd = sc.open("/pass/collected", "w")
            sc.write(fd, collected)
            sc.close(fd)
            results["data"] = collected
            return 0

        kernel = system.kernel
        kernel.register_program("/pass/bin/prod", producer)
        kernel.register_program("/pass/bin/cons", consumer)
        with system.process() as shell:
            rfd, wfd = shell.pipe()
            prod_fd = shell.proc.lookup_fd(wfd)
            cons_fd = shell.proc.lookup_fd(rfd)
            kernel.start("/pass/bin/prod", stdout=prod_fd)
            kernel.start("/pass/bin/cons", stdin=cons_fd)
            shell.close(wfd)
            shell.close(rfd)
            kernel.schedule()
        assert results["data"] == b"".join(
            f"chunk{i};".encode() for i in range(5))
        system.sync()
        db = system.database("pass")
        assert_acyclic(db)
        out_ref = system.find_by_name("/pass/collected")[0]
        types = set()
        for ref in ancestry_refs(system.query_engine().graph, out_ref):
            types.update(db.attribute_values(ref, Attr.TYPE))
        assert "PIPE" in types
