"""Unit tests for the syscall layer, processes, and pipes."""

import pytest

from repro.core.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    IsADirectory,
)
from repro.kernel.process import DeadlockError
from repro.system import System


@pytest.fixture
def shell(baseline):
    with baseline.process(argv=["sh"]) as proc:
        yield proc


class TestOpenModes:
    def test_read_missing_raises(self, shell):
        with pytest.raises(FileNotFound):
            shell.open("/pass/missing", "r")

    def test_write_creates(self, shell):
        fd = shell.open("/pass/new", "w")
        shell.write(fd, b"x")
        shell.close(fd)
        assert shell.exists("/pass/new")

    def test_write_truncates(self, shell):
        fd = shell.open("/pass/t", "w")
        shell.write(fd, b"long content here")
        shell.close(fd)
        fd = shell.open("/pass/t", "w")
        shell.close(fd)
        assert shell.stat("/pass/t")["size"] == 0

    def test_append_mode(self, shell):
        fd = shell.open("/pass/a", "a")
        shell.write(fd, b"one")
        shell.close(fd)
        fd = shell.open("/pass/a", "a")
        shell.write(fd, b"two")
        shell.close(fd)
        fd = shell.open("/pass/a", "r")
        assert shell.read(fd) == b"onetwo"

    def test_exclusive_create(self, shell):
        fd = shell.open("/pass/x", "x")
        shell.close(fd)
        with pytest.raises(FileExists):
            shell.open("/pass/x", "x")

    def test_rplus_reads_and_writes(self, shell):
        fd = shell.open("/pass/rw", "w")
        shell.write(fd, b"hello")
        shell.close(fd)
        fd = shell.open("/pass/rw", "r+")
        assert shell.read(fd, 2) == b"he"
        shell.write(fd, b"LLO")
        shell.close(fd)
        fd = shell.open("/pass/rw", "r")
        assert shell.read(fd) == b"heLLO"

    def test_bad_mode(self, shell):
        with pytest.raises(ValueError):
            shell.open("/pass/f", "q")

    def test_open_directory_raises(self, shell):
        shell.mkdir("/pass/d")
        with pytest.raises(IsADirectory):
            shell.open("/pass/d", "r")

    def test_read_from_writeonly_fd(self, shell):
        fd = shell.open("/pass/w", "w")
        with pytest.raises(BadFileDescriptor):
            shell.read(fd)

    def test_write_to_readonly_fd(self, shell):
        fd = shell.open("/pass/w", "w")
        shell.write(fd, b"x")
        shell.close(fd)
        fd = shell.open("/pass/w", "r")
        with pytest.raises(BadFileDescriptor):
            shell.write(fd, b"y")

    def test_closed_fd_rejected(self, shell):
        fd = shell.open("/pass/c", "w")
        shell.close(fd)
        with pytest.raises(BadFileDescriptor):
            shell.write(fd, b"x")

    def test_relative_paths_resolve_against_cwd(self, shell):
        shell.proc.cwd = "/pass"
        fd = shell.open("rel.txt", "w")
        shell.write(fd, b"data")
        shell.close(fd)
        assert shell.exists("/pass/rel.txt")


class TestReadWriteVariants:
    def test_pread_does_not_move_offset(self, shell):
        fd = shell.open("/pass/p", "w")
        shell.write(fd, b"abcdef")
        shell.close(fd)
        fd = shell.open("/pass/p", "r")
        assert shell.pread(fd, 2, 3) == b"cde"
        assert shell.read(fd, 2) == b"ab"

    def test_pwrite(self, shell):
        fd = shell.open("/pass/p", "w")
        shell.write(fd, b"000000")
        shell.pwrite(fd, 2, b"XX")
        shell.close(fd)
        fd = shell.open("/pass/p", "r")
        assert shell.read(fd) == b"00XX00"

    def test_readv_writev(self, shell):
        fd = shell.open("/pass/v", "w")
        assert shell.writev(fd, [b"ab", b"cd", b"ef"]) == 6
        shell.close(fd)
        fd = shell.open("/pass/v", "r")
        assert shell.readv(fd, [2, 2, 2]) == [b"ab", b"cd", b"ef"]

    def test_write_hole_counts_size(self, shell):
        fd = shell.open("/pass/h", "w")
        shell.write_hole(fd, 10000)
        shell.close(fd)
        assert shell.stat("/pass/h")["size"] == 10000

    def test_read_to_eof_default(self, shell):
        fd = shell.open("/pass/e", "w")
        shell.write(fd, b"abc")
        shell.close(fd)
        fd = shell.open("/pass/e", "r")
        assert shell.read(fd) == b"abc"
        assert shell.read(fd) == b""


class TestPipes:
    def test_roundtrip(self, shell):
        rfd, wfd = shell.pipe()
        shell.write(wfd, b"through the pipe")
        assert shell.read(rfd, 7) == b"through"
        assert shell.read(rfd) == b" the pipe"

    def test_eof_after_writer_closes(self, shell):
        rfd, wfd = shell.pipe()
        shell.write(wfd, b"x")
        shell.close(wfd)
        assert shell.read(rfd) == b"x"
        assert shell.read(rfd) == b""            # EOF

    def test_empty_pipe_with_writer_deadlocks(self, shell):
        rfd, wfd = shell.pipe()
        with pytest.raises(DeadlockError):
            shell.read(rfd)

    def test_pipe_available(self, shell):
        rfd, wfd = shell.pipe()
        shell.write(wfd, b"12345")
        assert shell.pipe_available(rfd) == 5

    def test_pipe_fd_directions(self, shell):
        rfd, wfd = shell.pipe()
        with pytest.raises(BadFileDescriptor):
            shell.write(rfd, b"x")
        with pytest.raises(BadFileDescriptor):
            shell.read(wfd)


class TestProcesses:
    def test_spawn_runs_to_completion(self, baseline):
        ran = []
        baseline.register_program("/pass/bin/child",
                                  lambda sc: ran.append(True) and 0 or 0)
        with baseline.process() as shell:
            child = shell.spawn("/pass/bin/child")
        assert ran == [True]
        assert not child.alive
        assert child.exit_code == 0

    def test_exit_code_propagates(self, baseline):
        baseline.register_program("/pass/bin/fail", lambda sc: 3)
        proc = baseline.run("/pass/bin/fail")
        assert proc.exit_code == 3

    def test_spawn_unregistered_raises(self, baseline):
        with baseline.process() as shell:
            with pytest.raises(FileNotFound):
                shell.spawn("/pass/bin/ghost")

    def test_fds_closed_at_exit(self, baseline):
        leaked = {}

        def leaky(sc):
            leaked["fd"] = sc.open("/pass/leak", "w")
            return 0

        baseline.register_program("/pass/bin/leaky", leaky)
        proc = baseline.run("/pass/bin/leaky")
        assert proc._fds == {}

    def test_stdin_stdout_inheritance(self, baseline):
        def producer(sc):
            sc.write(sc.stdout, b"payload")
            return 0

        def consumer(sc):
            out = sc.open("/pass/got", "w")
            sc.write(out, sc.read(sc.stdin))
            sc.close(out)
            return 0

        baseline.register_program("/pass/bin/p", producer)
        baseline.register_program("/pass/bin/c", consumer)
        with baseline.process() as shell:
            rfd, wfd = shell.pipe()
            shell.spawn("/pass/bin/p", stdout=wfd)
            shell.close(wfd)
            shell.spawn("/pass/bin/c", stdin=rfd)
            shell.close(rfd)
        fd_system = baseline
        with fd_system.process() as proc:
            fd = proc.open("/pass/got", "r")
            assert proc.read(fd) == b"payload"

    def test_no_stdin_raises(self, baseline):
        def orphan(sc):
            sc.read(sc.stdin)

        baseline.register_program("/pass/bin/orphan", orphan)
        with pytest.raises(BadFileDescriptor):
            baseline.run("/pass/bin/orphan")

    def test_generator_programs_interleave(self, baseline):
        order = []

        def gen_a(sc):
            order.append("a1")
            yield
            order.append("a2")
            yield
            return 0

        def gen_b(sc):
            order.append("b1")
            yield
            order.append("b2")
            return 0

        kernel = baseline.kernel
        kernel.register_program("/pass/bin/a", gen_a)
        kernel.register_program("/pass/bin/b", gen_b)
        kernel.start("/pass/bin/a")
        kernel.start("/pass/bin/b")
        kernel.schedule()
        assert order == ["a1", "b1", "a2", "b2"]

    def test_compute_charges_clock(self, baseline):
        with baseline.process() as shell:
            before = baseline.kernel.clock.now
            shell.compute(1.5)
            assert baseline.kernel.clock.now - before == pytest.approx(1.5)

    def test_mmap_requires_file(self, baseline):
        with baseline.process() as shell:
            rfd, wfd = shell.pipe()
            with pytest.raises(BadFileDescriptor):
                shell.mmap(rfd)
