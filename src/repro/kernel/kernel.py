"""The simulated machine: clock, disk, VFS, processes, provenance wiring.

A :class:`Kernel` is one machine.  Booted bare it behaves like vanilla
Linux-on-ext3 (the paper's baseline).  :meth:`enable_provenance` builds
the PASSv2 pipeline -- observer, analyzer, distributor -- and attaches
the interceptor; the storage layer (:mod:`repro.storage`) attaches
Lasagna to each PASS-capable volume.  Use :class:`repro.system.System`
for a one-call assembly of the whole stack.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.errors import FileNotFound, VolumeError
from repro.kernel.cache import PageCache
from repro.kernel.clock import SimClock
from repro.kernel.disk import SimulatedDisk
from repro.kernel.interceptor import Interceptor
from repro.kernel.params import SimParams
from repro.kernel.process import FileDescriptor, Process
from repro.kernel.syscalls import Syscalls
from repro.kernel.vfs import VFS, Inode
from repro.kernel.volume import Volume, allocate_volume_id
from repro.obs import Observability

#: A program body: called with a Syscalls facade; may return an exit code
#: or a generator (cooperatively scheduled via Kernel.start/schedule).
Program = Callable[[Syscalls], object]


class Kernel:
    """One simulated machine."""

    #: Reported by provenance records (the paper's testbed kernel).
    version_string = "sim-linux-2.6.23.17-pass"

    def __init__(self, params: Optional[SimParams] = None,
                 hostname: str = "sim", clock: Optional[SimClock] = None,
                 obs: Optional[Observability] = None, faults=None):
        self.params = params or SimParams()
        self.hostname = hostname
        # Machines in one simulation (NFS client + server) share a clock,
        # so a blocking RPC charges the caller's elapsed time correctly.
        self.clock = clock or SimClock()
        # One observability instance per machine; spans read simulated
        # time through the tracer instead of ad-hoc clock.now calls.
        self.obs = obs or Observability()
        self.obs.bind_clock(lambda: self.clock.now)
        #: Fault injector (repro.faults); threaded into the disk and the
        #: provenance pipeline.  None (the default) keeps every site bare.
        self.faults = faults
        self.disk = SimulatedDisk(self.clock, self.params.disk,
                                  faults=faults)
        self.cache = PageCache(self.params.cache, obs=self.obs)
        self.vfs = VFS()
        self.interceptor = Interceptor(obs=self.obs)

        self._volumes_by_name: dict[str, Volume] = {}
        self._volumes_by_id: dict[int, Volume] = {}
        self._processes: dict[int, Process] = {}
        self._next_pid = 1
        self._programs: dict[tuple[int, int], Program] = {}
        self._libpass: dict[int, object] = {}
        self._scheduled: list[tuple[Process, object]] = []

        # PASSv2 pipeline; populated by enable_provenance().
        self.observer = None
        self.analyzer = None
        self.distributor = None

    # -- volumes ------------------------------------------------------------------

    def add_volume(self, name: str, mountpoint: str,
                   pass_capable: bool = False) -> Volume:
        """Create a volume and mount it."""
        if name in self._volumes_by_name:
            raise VolumeError(f"duplicate volume name: {name!r}")
        # Volume ids are globally unique across machines: an NFS client
        # registers the *server's* export volume id in its own table for
        # pnode routing, so two machines may never reuse an id.
        volume = Volume(name, allocate_volume_id(), self.clock, self.disk,
                        self.cache, pass_capable=pass_capable)
        self._volumes_by_name[name] = volume
        self._volumes_by_id[volume.volume_id] = volume
        self.vfs.mount(volume, mountpoint)
        volume.on_drop_inode = self._drop_inode
        return volume

    def mount_volume(self, volume, mountpoint: str) -> None:
        """Mount an externally constructed volume-like object (NFS).

        The object keeps its own ``volume_id`` (an NFS client volume
        carries the *server's* export id so pnode routing works) and is
        registered under both its name and that id.
        """
        if volume.name in self._volumes_by_name:
            raise VolumeError(f"duplicate volume name: {volume.name!r}")
        if volume.volume_id in self._volumes_by_id:
            raise VolumeError(
                f"volume id {volume.volume_id} already registered here"
            )
        self._volumes_by_name[volume.name] = volume
        self._volumes_by_id[volume.volume_id] = volume
        self.vfs.mount(volume, mountpoint)
        if getattr(volume, "on_drop_inode", "absent") is None:
            volume.on_drop_inode = self._drop_inode

    def volume(self, name: str) -> Volume:
        """Look up a volume by name."""
        try:
            return self._volumes_by_name[name]
        except KeyError:
            raise VolumeError(f"no such volume: {name!r}") from None

    def volume_by_id(self, volume_id: int) -> Volume:
        """Look up a volume by id (pnode routing)."""
        try:
            return self._volumes_by_id[volume_id]
        except KeyError:
            raise VolumeError(f"no volume with id {volume_id}") from None

    def volumes(self) -> list[Volume]:
        """All volumes on this machine."""
        return list(self._volumes_by_name.values())

    def pass_volumes(self) -> list[Volume]:
        """PASS-capable volumes."""
        return [v for v in self.volumes() if v.pass_capable]

    def _drop_inode(self, inode: Inode) -> None:
        observer = self.interceptor.event("drop_inode")
        if observer is not None:
            observer.on_drop_inode(inode)
        self._programs.pop((inode.volume.volume_id, inode.ino), None)

    # -- provenance wiring ------------------------------------------------------------

    def enable_provenance(self,
                          default_volume: Optional[str] = None) -> None:
        """Build the observer/analyzer/distributor pipeline and attach the
        interceptor.  Lasagna must already be attached to PASS volumes
        (the storage layer or :class:`repro.system.System` does that).

        The observer groups each syscall event into one analyzer batch,
        the analyzer emits :class:`RecordBatch` carriers through
        ``flush_batch``, and the log may group-commit them.  Records
        admitted one at a time (``Analyzer.submit``) leave through
        ``dispatch`` and wait in the log buffer for the next explicit
        flush, so their caller decides where the ordering point is."""
        from repro.core.analyzer import Analyzer
        from repro.core.distributor import Distributor
        from repro.core.observer import Observer

        if default_volume is None:
            passers = self.pass_volumes()
            default_volume = passers[0].name if passers else None

        self.distributor = Distributor(
            flush_sink=self._provenance_sink,
            volume_name_of=lambda vid: self.volume_by_id(vid).name,
            default_volume=default_volume,
            faults=self.faults,
        )
        self.analyzer = Analyzer(
            emit=self.distributor.dispatch,
            clock=self.clock,
            record_cost=self.params.cpu.provenance_record,
            emit_batch=self.distributor.flush_batch,
        )
        self.observer = Observer(self, self.analyzer, self.distributor)
        self.analyzer.bind_obs(self.obs)
        self.distributor.bind_obs(self.obs)
        self.observer.bind_obs(self.obs)
        self.interceptor.attach(self.observer)

    def _provenance_sink(self, volume_name: str, bundle) -> None:
        """Distributor flush target: the volume's Lasagna log."""
        volume = self.volume(volume_name)
        if volume.lasagna is None:
            raise VolumeError(
                f"volume {volume_name!r} has no Lasagna attached; "
                "use repro.system.System or attach one explicitly"
            )
        volume.lasagna.append_provenance(bundle)

    @property
    def provenance_on(self) -> bool:
        """True when the interceptor is feeding the observer."""
        return self.interceptor.enabled and self.observer is not None

    # -- programs -----------------------------------------------------------------------

    def register_program(self, path: str, program: Program,
                         size: int = 102400) -> Inode:
        """Install an executable at ``path`` backed by ``program``.

        The file really exists (EXEC ancestry edges point at it); its
        content is a hole of ``size`` bytes.
        """
        parent_dir = path.rpartition("/")[0]
        self._ensure_dirs(parent_dir or "/")
        inode = self.vfs.create(path, exclusive=False)
        inode.volume.write_bytes(inode, 0, None, size)
        self._programs[(inode.volume.volume_id, inode.ino)] = program
        return inode

    def _ensure_dirs(self, path: str) -> None:
        if path == "/" or self.vfs.exists(path):
            return
        self._ensure_dirs(path.rpartition("/")[0] or "/")
        self.vfs.mkdir(path)

    def program_at(self, path: str) -> Program:
        """Resolve a registered program by path."""
        inode = self.vfs.resolve(path)
        key = (inode.volume.volume_id, inode.ino)
        try:
            return self._programs[key]
        except KeyError:
            raise FileNotFound(f"not an executable: {path}") from None

    # -- processes ----------------------------------------------------------------------

    def _create_process(self, argv: list[str], env: dict[str, str],
                        parent: Optional[Process]) -> Process:
        pnode = 0
        if self.provenance_on:
            pnode = self.observer.transient_pnode()
        proc = Process(self, self._next_pid,
                       parent.pid if parent else 0, pnode, argv, env)
        proc.stdin_fd = None
        proc.stdout_fd = None
        self._next_pid += 1
        self._processes[proc.pid] = proc
        return proc

    def run_program(self, path: str, argv: Optional[list[str]] = None,
                    env: Optional[dict[str, str]] = None,
                    parent: Optional[Process] = None,
                    stdin: Optional[FileDescriptor] = None,
                    stdout: Optional[FileDescriptor] = None,
                    program: Optional[Program] = None) -> Process:
        """fork + execve + run to completion (synchronously).

        ``program`` overrides the executable lookup (anonymous programs
        used by tests); otherwise ``path`` must name a registered
        executable.
        """
        proc, gen = self._launch(path, argv, env, parent, stdin, stdout,
                                 program)
        if gen is not None:
            try:
                while True:
                    next(gen)
            except StopIteration as stop:
                self.reap(proc, stop.value)
        return proc

    def start(self, path: str, argv: Optional[list[str]] = None,
              env: Optional[dict[str, str]] = None,
              parent: Optional[Process] = None,
              stdin: Optional[FileDescriptor] = None,
              stdout: Optional[FileDescriptor] = None,
              program: Optional[Program] = None) -> Process:
        """Launch a *generator* program for cooperative scheduling.

        Plain-function programs run to completion immediately (there is
        nothing to interleave).  Drive generators with :meth:`schedule`.
        """
        proc, gen = self._launch(path, argv, env, parent, stdin, stdout,
                                 program)
        if gen is not None:
            self._scheduled.append((proc, gen))
        return proc

    def schedule(self) -> None:
        """Round-robin the started generator programs to completion."""
        while self._scheduled:
            proc, gen = self._scheduled.pop(0)
            try:
                next(gen)
            except StopIteration as stop:
                self.reap(proc, stop.value)
            else:
                self._scheduled.append((proc, gen))

    def _launch(self, path, argv, env, parent, stdin, stdout, program):
        argv = argv if argv is not None else [path]
        env = env if env is not None else {"PATH": "/bin", "HOME": "/root"}
        binary: Optional[Inode] = None
        if program is None:
            program = self.program_at(path)
            binary = self.vfs.resolve(path)
        proc = self._create_process(argv, env, parent)
        proc.exec_path = path
        proc.program = program

        observer = self.interceptor.event("fork")
        if observer is not None:
            observer.on_fork(proc, parent)
        observer = self.interceptor.event("execve")
        if observer is not None:
            observer.on_execve(proc, binary, path)

        if stdin is not None:
            copy = FileDescriptor(stdin.kind, inode=stdin.inode,
                                  pipe=stdin.pipe, passobj=stdin.passobj,
                                  readable=True, writable=False)
            copy.path = getattr(stdin, "path", None)
            proc.stdin_fd = proc.install_fd(copy)
        if stdout is not None:
            copy = FileDescriptor(stdout.kind, inode=stdout.inode,
                                  pipe=stdout.pipe, passobj=stdout.passobj,
                                  readable=False, writable=True)
            copy.path = getattr(stdout, "path", None)
            proc.stdout_fd = proc.install_fd(copy)

        result = program(Syscalls(self, proc))
        if hasattr(result, "__next__"):
            return proc, result
        self.reap(proc, result)
        return proc, None

    def reap(self, proc: Process, result) -> None:
        """Retire a finished process: exit provenance, fd close, cleanup.

        Public because the facade (and generator-driven shells) finish
        processes whose programs ran to completion elsewhere.
        """
        proc.exit_code = int(result) if isinstance(result, int) else 0
        proc.alive = False
        observer = self.interceptor.event("exit")
        if observer is not None:
            observer.on_exit(proc)
        proc.close_all()
        self._libpass.pop(proc.pid, None)

    # -- libpass ----------------------------------------------------------------------

    def libpass_for(self, proc: Process):
        """The user-level DPAPI bound to one process (cached)."""
        from repro.core.libpass import LibPass
        if proc.pid not in self._libpass:
            self._libpass[proc.pid] = LibPass(self, proc)
        return self._libpass[proc.pid]

    # -- convenience --------------------------------------------------------------------

    def spawn_shell(self, argv: Optional[list[str]] = None) -> Syscalls:
        """An interactive 'shell' process for direct syscall use."""
        proc = self._create_process(argv or ["sh"], {"PATH": "/bin"}, None)
        observer = self.interceptor.event("fork")
        if observer is not None:
            observer.on_fork(proc, None)
        observer = self.interceptor.event("execve")
        if observer is not None:
            observer.on_execve(proc, None, argv[0] if argv else "sh")
        return Syscalls(self, proc)
