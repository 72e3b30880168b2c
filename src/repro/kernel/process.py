"""Processes, file descriptors, and pipes.

Processes are first-class provenanced objects (the distributor stores
their provenance until they become ancestors of something persistent).
Every process gets a pnode from the transient space at creation.

Programs are Python callables invoked with a :class:`~repro.kernel.syscalls.Syscalls`
facade.  A program may be a plain function (run to completion) or a
generator function (``yield`` points let the scheduler interleave
processes, which the cycle-avoidance tests use to reproduce the
concurrent read/write cycles of section 5.4).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.errors import BadFileDescriptor, KernelError
from repro.core.pnode import Versioned
from repro.kernel.vfs import Inode

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class DeadlockError(KernelError):
    """A non-generator program read an empty pipe that still has writers.

    Sequentially executed programs cannot block; spawn pipeline stages in
    producer-before-consumer order, or write the program as a generator so
    the scheduler can interleave it.
    """

    errno_name = "EDEADLK"


#: Pipe ids: an itertools.count so nothing can rebind or rewind the
#: sequence.
_PIPE_IDS = itertools.count(1)


class Pipe(Versioned):
    """An unbounded in-kernel byte channel; a provenanced object."""

    def __init__(self, pnode: int):
        self.pipe_id = next(_PIPE_IDS)
        self.pnode = pnode
        self.version = 0
        self._buffer = bytearray()
        self.readers = 0
        self.writers = 0
        self.bytes_through = 0

    def write(self, data: bytes) -> int:
        self._buffer.extend(data)
        self.bytes_through += len(data)
        return len(data)

    def read(self, length: int) -> bytes:
        take = min(length, len(self._buffer))
        data = bytes(self._buffer[:take])
        del self._buffer[:take]
        return data

    @property
    def available(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:
        return f"<Pipe {self.pipe_id} pnode={self.pnode} buf={self.available}>"


class FileDescriptor:
    """One open-file description."""

    FILE = "file"
    PIPE_R = "pipe_r"
    PIPE_W = "pipe_w"
    PASSOBJ = "passobj"

    def __init__(self, kind: str, inode: Optional[Inode] = None,
                 pipe: Optional[Pipe] = None, passobj=None,
                 readable: bool = True, writable: bool = True,
                 append: bool = False):
        self.kind = kind
        self.inode = inode
        self.pipe = pipe
        self.passobj = passobj
        self.readable = readable
        self.writable = writable
        self.append = append
        self.offset = 0
        self.closed = False
        #: Path used at open time (provenance NAME records).
        self.path: Optional[str] = None

    def target(self):
        """The provenanced object behind this descriptor."""
        if self.kind == self.FILE:
            return self.inode
        if self.kind in (self.PIPE_R, self.PIPE_W):
            return self.pipe
        return self.passobj

    def __repr__(self) -> str:
        return f"<FD {self.kind} {self.target()!r}>"


class Process(Versioned):
    """A simulated process: identity, descriptor table, program state."""

    def __init__(self, kernel: "Kernel", pid: int, ppid: int, pnode: int,
                 argv: list[str], env: dict[str, str], cwd: str = "/"):
        self.kernel = kernel
        self.pid = pid
        self.ppid = ppid
        self.pnode = pnode
        self.version = 0
        self.argv = list(argv)
        self.env = dict(env)
        self.cwd = cwd
        self.alive = True
        self.exit_code: Optional[int] = None
        self.exec_path: Optional[str] = None
        self.stdin_fd: Optional[int] = None
        self.stdout_fd: Optional[int] = None

        self._fds: dict[int, FileDescriptor] = {}
        self._next_fd = 3          # 0-2 conceptually reserved for stdio
        #: Program body: callable or the generator it returned.
        self.program: Optional[Callable] = None
        self.generator = None

    # -- descriptor table ----------------------------------------------------

    def install_fd(self, fdesc: FileDescriptor) -> int:
        """Add a descriptor; returns its number."""
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = fdesc
        if fdesc.kind == FileDescriptor.PIPE_R:
            fdesc.pipe.readers += 1
        elif fdesc.kind == FileDescriptor.PIPE_W:
            fdesc.pipe.writers += 1
        return fd

    def lookup_fd(self, fd: int) -> FileDescriptor:
        """Resolve a descriptor number or raise EBADF."""
        fdesc = self._fds.get(fd)
        if fdesc is None or fdesc.closed:
            raise BadFileDescriptor(f"pid {self.pid}: fd {fd}")
        return fdesc

    def release_fd(self, fd: int) -> FileDescriptor:
        """Close a descriptor number."""
        fdesc = self.lookup_fd(fd)
        fdesc.closed = True
        del self._fds[fd]
        if fdesc.kind == FileDescriptor.PIPE_R:
            fdesc.pipe.readers -= 1
        elif fdesc.kind == FileDescriptor.PIPE_W:
            fdesc.pipe.writers -= 1
        return fdesc

    def close_all(self) -> None:
        """Close every descriptor (process exit)."""
        for fd in list(self._fds):
            self.release_fd(fd)

    def __repr__(self) -> str:
        state = "live" if self.alive else f"exit={self.exit_code}"
        name = self.argv[0] if self.argv else "?"
        return f"<Process {self.pid} {name} {state}>"
