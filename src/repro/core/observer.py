"""The observer: system-call events -> provenance records (section 5.3).

The observer receives events from the interceptor, constructs provenance
records, and passes them to the analyzer.  It is also the entry point
for provenance-aware applications: when an application discloses
provenance through the DPAPI, the observer converts the disclosed
records into kernel structures, adds the records the kernel itself must
contribute (e.g. the dependency between the writing application and the
written file), and forwards everything downstream.

The observer drives the *data* path too, so that data and provenance
move together (consistency, section 4): writes to a PASS volume go
through Lasagna's ``pass_write``, which enforces write-ahead provenance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.analyzer import Analyzer, ProtoRecord, ProtoRun, proto_count
from repro.core.distributor import Distributor
from repro.core.dpapi import PassObject
from repro.core.errors import StalePnodeVersion
from repro.core.pnode import ObjectRef, PnodeAllocator, TRANSIENT_VOLUME
from repro.core.records import Attr, ObjType
from repro.kernel.process import Pipe, Process
from repro.kernel.vfs import Inode

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Observer:
    """Translates events into records and routes data through the DPAPI."""

    def __init__(self, kernel: "Kernel", analyzer: Analyzer,
                 distributor: Distributor):
        self.kernel = kernel
        self.analyzer = analyzer
        self.distributor = distributor
        self._transient = PnodeAllocator(TRANSIENT_VOLUME)
        #: pnodes whose identity (NAME/TYPE) records were already emitted.
        self._identified: set[int] = set()
        #: Revivable pass_mkobj objects, by pnode.
        self._passobjs: dict[int, PassObject] = {}
        #: Last process to write each file, by pnode: a write by a
        #: *different* process starts a new version, so independent
        #: producing runs never merge their ancestry into one version.
        self._last_writer: dict[int, int] = {}
        # Statistics (all submissions funnel through _flush_event).
        self.records_emitted = 0
        self.disclosed_count = 0

    def bind_obs(self, obs) -> None:
        """Expose emission totals to the observability layer."""
        obs.add_collector("observer", self._obs_counters)

    def _obs_counters(self) -> dict:
        return {
            "records_emitted": self.records_emitted,
            "disclosed_records": self.disclosed_count,
            "objects_identified": len(self._identified),
            "transient_pnodes": self._transient.high_water - 1,
        }

    def _flush_event(self, protos: list) -> None:
        """Emit one event's worth of proto-records downstream as one
        ``Analyzer.submit_batch`` call (the observer's choke point, so
        record emission is countable per layer).  Admission order is
        the list order."""
        if not protos:
            return
        self.records_emitted += proto_count(protos)
        self.analyzer.submit_batch(protos)

    def submit_protos(self, protos) -> None:
        """Public batch entry: emit caller-built proto-records as one
        event (the kernel's rename/link paths and provenance-aware
        layers use this instead of reaching into the analyzer)."""
        self._flush_event(list(protos))

    # -- pnode management -------------------------------------------------------

    def transient_pnode(self) -> int:
        """Allocate a pnode in the transient space."""
        return self._transient.allocate()

    def adopt(self, obj) -> None:
        """Assign a transient pnode to an object that lacks one."""
        if getattr(obj, "pnode", 0) == 0:
            obj.pnode = self.transient_pnode()
        self.analyzer.register(obj)

    # -- identity records ----------------------------------------------------------

    def identify_inode(self, inode: Inode, path: Optional[str] = None) -> None:
        """Emit NAME/TYPE/TIME for a file on first provenance contact."""
        protos: list = []
        self._identify_inode(inode, path, protos)
        self._flush_event(protos)

    def identify_named(self, inode: Inode, path: Optional[str],
                       name: str) -> None:
        """Identity plus a NAME refresh in one event batch.

        The rename and link syscalls bind a (possibly already
        identified) inode to a new path; first-contact identity and the
        new NAME must land in the same event so ancestry closure never
        sees a nameless subject.
        """
        protos: list = []
        self._identify_inode(inode, path, protos)
        protos.append(ProtoRecord(inode, Attr.NAME, name))
        self.submit_protos(protos)

    def _identify_inode(self, inode: Inode, path: Optional[str],
                        protos: list) -> None:
        """Collect a file's first-contact identity into the event batch."""
        self.adopt(inode)
        if inode.pnode in self._identified:
            return
        self._identified.add(inode.pnode)
        obj_type = ObjType.FILE if inode.volume.pass_capable else ObjType.NP_FILE
        if inode.is_dir:
            obj_type = ObjType.DIR
        protos.append(ProtoRecord(inode, Attr.TYPE, obj_type))
        if path:
            protos.append(ProtoRecord(inode, Attr.NAME, path))
        protos.append(ProtoRecord(inode, Attr.TIME, self.kernel.clock.now))

    def identify_process(self, proc: Process) -> None:
        """Emit TYPE/NAME/ARGV/ENV/PID for a process on first contact."""
        protos: list = []
        self._identify_process(proc, protos)
        self._flush_event(protos)

    def _identify_process(self, proc: Process, protos: list) -> None:
        """Collect a process's first-contact identity into the batch."""
        self.analyzer.register(proc)
        if proc.pnode in self._identified:
            return
        self._identified.add(proc.pnode)
        protos.append(ProtoRecord(proc, Attr.TYPE, ObjType.PROCESS))
        if proc.argv:
            protos.append(ProtoRecord(proc, Attr.NAME, proc.argv[0]))
            protos.append(ProtoRecord(proc, Attr.ARGV, "\0".join(proc.argv)))
        if proc.env:
            env = "\0".join(f"{key}={value}" for key, value in sorted(proc.env.items()))
            protos.append(ProtoRecord(proc, Attr.ENV, env))
        protos.append(ProtoRecord(proc, Attr.PID, proc.pid))
        protos.append(ProtoRecord(proc, Attr.TIME, self.kernel.clock.now))
        # Environment facts system-level provenance is valued for:
        # "the specific binaries, libraries, and kernel modules in use".
        protos.append(ProtoRecord(proc, Attr.KERNEL,
                                  self.kernel.version_string))

    def identify_pipe(self, pipe: Pipe) -> None:
        """Emit TYPE for a pipe on first contact."""
        protos: list = []
        self._identify_pipe(pipe, protos)
        self._flush_event(protos)

    def _identify_pipe(self, pipe: Pipe, protos: list) -> None:
        """Collect a pipe's first-contact identity into the batch."""
        self.analyzer.register(pipe)
        if pipe.pnode in self._identified:
            return
        self._identified.add(pipe.pnode)
        protos.append(ProtoRecord(pipe, Attr.TYPE, ObjType.PIPE))

    # -- system-call handlers (called by the interceptor) ---------------------------

    def on_execve(self, proc: Process, binary: Optional[Inode],
                  path: Optional[str]) -> None:
        """Process executed a binary: identity + EXEC ancestry edge."""
        protos: list = []
        self._identify_process(proc, protos)
        if binary is not None:
            self._identify_inode(binary, path, protos)
            protos.append(ProtoRecord(proc, Attr.EXEC, binary.ref()))
        self._flush_event(protos)

    def on_fork(self, child: Process, parent: Optional[Process]) -> None:
        """New process: identity + FORKPARENT ancestry edge."""
        protos: list = []
        self._identify_process(child, protos)
        if parent is not None:
            self._identify_process(parent, protos)
            protos.append(ProtoRecord(child, Attr.FORKPARENT, parent.ref()))
        self._flush_event(protos)

    def on_exit(self, proc: Process) -> None:
        """Process exit.  Cached provenance stays in the distributor: a
        descendant may yet become persistent (e.g. a pipe reader)."""
        # Intentionally nothing to record; the hook exists for symmetry
        # with the interceptor's syscall table and for subclasses.

    def on_read(self, proc: Process, inode: Inode, path: Optional[str],
                offset: int, length: int) -> bytes:
        """pass_read semantics: return data plus record P -> file@version."""
        protos: list = []
        self._identify_inode(inode, path, protos)
        self._identify_process(proc, protos)
        data = self._read_data(inode, offset, length)
        protos.append(ProtoRecord(proc, Attr.INPUT, inode.ref()))
        self._flush_event(protos)
        return data

    def on_write(self, proc: Process, inode: Inode, path: Optional[str],
                 offset: int, data: Optional[bytes],
                 length: Optional[int]) -> int:
        """Record file -> P, then write data with its provenance (WAP)."""
        protos: list = []
        self._identify_inode(inode, path, protos)
        self._identify_process(proc, protos)
        if self._writer_changed(inode, proc.pnode):
            # The freeze record must land between the identity records
            # and the INPUT edge, and a freeze outside a batch leaves by
            # the ordered route: the identity batch goes first, then the
            # freeze, then the edge.
            self._flush_event(protos)
            protos = []
            self.analyzer.freeze(inode)
        self._last_writer[inode.pnode] = proc.pnode
        protos.append(ProtoRecord(inode, Attr.INPUT, proc.ref()))
        self._flush_event(protos)
        return self._write_data(inode, offset, data, length)

    def _writer_changed(self, inode: Inode, writer_pnode: int) -> bool:
        """True when a different process starts writing this file."""
        previous = self._last_writer.get(inode.pnode)
        return previous is not None and previous != writer_pnode

    def on_mmap(self, proc: Process, inode: Inode, path: Optional[str],
                readable: bool, writable: bool) -> None:
        """mmap creates dependencies in whichever directions it maps."""
        protos: list = []
        self._identify_inode(inode, path, protos)
        self._identify_process(proc, protos)
        if readable:
            protos.append(ProtoRecord(proc, Attr.INPUT, inode.ref()))
        if writable:
            protos.append(ProtoRecord(inode, Attr.INPUT, proc.ref()))
        self._flush_event(protos)

    def on_pipe_create(self, proc: Process, pipe: Pipe) -> None:
        """New pipe: assign identity."""
        self.adopt(pipe)
        self.identify_pipe(pipe)

    def on_pipe_write(self, proc: Process, pipe: Pipe) -> None:
        """pipe depends on the writing process."""
        protos: list = []
        self._identify_pipe(pipe, protos)
        self._identify_process(proc, protos)
        protos.append(ProtoRecord(pipe, Attr.INPUT, proc.ref()))
        self._flush_event(protos)

    def on_pipe_read(self, proc: Process, pipe: Pipe) -> None:
        """the reading process depends on the pipe."""
        protos: list = []
        self._identify_pipe(pipe, protos)
        self._identify_process(proc, protos)
        protos.append(ProtoRecord(proc, Attr.INPUT, pipe.ref()))
        self._flush_event(protos)

    def on_drop_inode(self, inode: Inode) -> None:
        """Last unlink: transient (non-PASS) file provenance with no
        persistent descendants is legitimately discarded."""
        if not inode.volume.pass_capable and inode.pnode:
            self.distributor.discard(inode.pnode)
            self.analyzer.forget(inode.pnode)

    # -- disclosed provenance (DPAPI entry points, via libpass) ---------------------

    def disclosed_records(self, proc: Optional[Process],
                          protos: Iterable[ProtoRecord]) -> None:
        """Accept application-disclosed records (one event batch: bulk
        disclosure is the DPAPI's natural big-batch entry point)."""
        event: list = []
        if proc is not None:
            self._identify_process(proc, event)
        self._disclose(protos, event)
        self._flush_event(event)

    def _disclose(self, protos, event: list) -> None:
        """Put disclosed protos on the event: a ``record_many`` run as
        one item, which the analyzer admits in bulk."""
        disclosed = [protos] if protos.__class__ is ProtoRun else list(protos)
        self.disclosed_count += proto_count(disclosed)
        event += disclosed

    def disclosed_write(self, proc: Optional[Process], inode: Inode,
                        path: Optional[str], offset: int,
                        data: Optional[bytes], length: Optional[int],
                        protos: Iterable[ProtoRecord]) -> int:
        """DPAPI pass_write from an application: disclosed records plus
        the kernel's own application->file dependency, plus the data."""
        event: list = []
        self._identify_inode(inode, path, event)
        if proc is not None and (data is not None or length is not None):
            if self._writer_changed(inode, proc.pnode):
                self._flush_event(event)
                event = []
                self.analyzer.freeze(inode)
            self._last_writer[inode.pnode] = proc.pnode
        self._disclose(protos, event)
        if proc is not None:
            self._identify_process(proc, event)
            event.append(ProtoRecord(inode, Attr.INPUT, proc.ref()))
        self._flush_event(event)
        if data is None and length is None:
            return 0
        return self._write_data(inode, offset, data, length)

    def mkobj(self, volume_hint: Optional[str] = None) -> PassObject:
        """DPAPI pass_mkobj: a provenanced object above the file system."""
        obj = PassObject(self.transient_pnode(), volume_hint)
        self.analyzer.register(obj)
        self._passobjs[obj.pnode] = obj
        if volume_hint is not None:
            self.distributor.set_hint(obj.pnode, volume_hint)
        return obj

    def adopt_passobj(self, obj: PassObject) -> PassObject:
        """Track an externally minted DPAPI object (e.g. a pnode
        allocated at a PA-NFS server) exactly as if ``mkobj`` had
        created it here: registered with the analyzer and revivable."""
        self.analyzer.register(obj)
        self._passobjs[obj.pnode] = obj
        return obj

    def reviveobj(self, pnode: int, version: int) -> PassObject:
        """DPAPI pass_reviveobj: reattach to an earlier pass_mkobj object."""
        obj = self._passobjs.get(pnode)
        if obj is None:
            raise StalePnodeVersion(
                f"pnode {pnode} was never created by pass_mkobj here"
            )
        if version > obj.version:
            raise StalePnodeVersion(
                f"pnode {pnode} has no version {version} (latest {obj.version})"
            )
        return obj

    def sync(self, pnode: int, volume_hint: Optional[str] = None) -> int:
        """DPAPI pass_sync: force cached provenance to a volume."""
        return self.distributor.sync(pnode, volume_hint)

    def freeze(self, obj) -> int:
        """DPAPI pass_freeze: explicit new version."""
        return self.analyzer.freeze(obj)

    # -- data path ----------------------------------------------------------------

    def _read_data(self, inode: Inode, offset: int, length: int) -> bytes:
        volume = inode.volume
        top = volume.fs_top
        if top is volume:
            return volume.read_bytes(inode, offset, length)
        return top.read_bytes(inode, offset, length)

    def _write_data(self, inode: Inode, offset: int,
                    data: Optional[bytes], length: Optional[int]) -> int:
        volume = inode.volume
        top = volume.fs_top
        if top is volume:
            return volume.write_bytes(inode, offset, data, length)
        return top.write_bytes(inode, offset, data, length)
