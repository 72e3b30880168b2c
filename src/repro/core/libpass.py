"""libpass: the user-level DPAPI (paper Figure 2, section 5.2).

Applications link against libpass to become provenance-aware.  The
library speaks in file descriptors, exactly like the kernel DPAPI:
``pass_mkobj`` returns a descriptor referencing an application-level
object; ``pass_write`` can target a file descriptor or an object
descriptor; disclosed records are built with :meth:`LibPass.record`
using descriptors as subjects and :meth:`LibPass.ref_of` for
cross-references.

Every call enters the kernel through the *observer* -- the designated
entry point for disclosed provenance -- so the kernel can add its own
records (e.g. the application -> file dependency on a data write).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.analyzer import ProtoRecord, ProtoRun
from repro.core.errors import BadFileDescriptor, ProvenanceError
from repro.core.pnode import ObjectRef
from repro.core.records import Value
from repro.kernel.process import FileDescriptor, Process


class LibPass:
    """User-level DPAPI bound to one process."""

    def __init__(self, kernel, proc: Process):
        self.kernel = kernel
        self.proc = proc

    # -- plumbing ---------------------------------------------------------------

    def _observer(self):
        observer = self.kernel.observer
        if observer is None or not self.kernel.interceptor.enabled:
            raise ProvenanceError(
                "provenance collection is not enabled on this kernel"
            )
        return observer

    def available(self) -> bool:
        """Is the DPAPI live -- provenance collection enabled on this
        kernel?  Applications probe this to degrade gracefully on
        non-PASS systems."""
        try:
            self._observer()
        except ProvenanceError:
            return False
        return True

    def _charge(self) -> None:
        self.kernel.clock.advance(self.kernel.params.cpu.syscall,
                                  "syscall_cpu")

    def _target(self, fd: int):
        fdesc = self.proc.lookup_fd(fd)
        target = fdesc.target()
        if target is None:
            raise BadFileDescriptor(f"fd {fd} has no provenanced object")
        return fdesc, target

    # -- record construction helpers ------------------------------------------------

    def ref_of(self, fd: int) -> ObjectRef:
        """Current (pnode, version) identity of the object behind ``fd``."""
        observer = self._observer()
        fdesc, target = self._target(fd)
        if getattr(target, "pnode", 0) == 0:
            observer.adopt(target)
        return target.ref()

    def record(self, subject_fd: int, attr: str, value: Value) -> ProtoRecord:
        """Build a disclosed record with the object behind ``subject_fd``
        as subject.  Pass the result to :meth:`pass_write`."""
        observer = self._observer()
        _, target = self._target(subject_fd)
        if getattr(target, "pnode", 0) == 0:
            observer.adopt(target)
        return ProtoRecord(target, attr, value)

    def record_many(self, subject_fd: int, attr: str,
                    values: Iterable[Value]) -> ProtoRun:
        """Build many disclosed records about one subject in one call.

        The bulk companion to :meth:`record`: the descriptor is resolved
        (and the subject adopted) once for the whole group instead of
        per record, which is what tight disclosure loops -- application
        checkpoints, batch annotators -- want before handing the group
        to :meth:`pass_write`.  The group is one :class:`ProtoRun`, not
        an object per value; it reads as a sequence of records.
        """
        observer = self._observer()
        _, target = self._target(subject_fd)
        if getattr(target, "pnode", 0) == 0:
            observer.adopt(target)
        return ProtoRun(target, attr, list(values))

    # -- the six DPAPI calls ------------------------------------------------------------

    def pass_read(self, fd: int, length: int = -1) -> tuple[bytes, ObjectRef]:
        """Read data *and* the exact identity of what was read."""
        self._charge()
        observer = self._observer()
        fdesc, target = self._target(fd)
        if fdesc.kind != FileDescriptor.FILE:
            raise BadFileDescriptor("pass_read targets file descriptors")
        inode = fdesc.inode
        if length < 0:
            length = max(0, inode.size - fdesc.offset)
        ref = inode.ref() if inode.pnode else None
        data = observer.on_read(self.proc, inode, fdesc.path,
                                fdesc.offset, length)
        fdesc.offset += len(data)
        return data, (ref or inode.ref())

    def pass_write(self, fd: int, data: Optional[bytes] = None,
                   records: Iterable[ProtoRecord] = (),
                   length: Optional[int] = None) -> int:
        """Write data together with a bundle of disclosed records.

        With ``data is None`` and ``length is None`` this discloses
        provenance only (no data moves) -- how applications attach
        semantic records to their ``pass_mkobj`` objects.
        """
        self._charge()
        observer = self._observer()
        fdesc, target = self._target(fd)
        if fdesc.kind == FileDescriptor.FILE:
            offset = fdesc.inode.size if fdesc.append else fdesc.offset
            written = observer.disclosed_write(
                self.proc, fdesc.inode, fdesc.path, offset,
                data, length, records,
            )
            fdesc.offset = offset + written
            return written
        # Object descriptors (pass_mkobj) carry no data.
        if data is not None or length is not None:
            raise BadFileDescriptor(
                "cannot write data to a pass_mkobj descriptor"
            )
        observer.disclosed_records(self.proc, records)
        return 0

    def pass_freeze(self, fd: int) -> int:
        """Force a new version of the object behind ``fd``."""
        self._charge()
        observer = self._observer()
        _, target = self._target(fd)
        return observer.freeze(target)

    def pass_mkobj(self, volume_hint: Optional[str] = None) -> int:
        """Create an application-level object; returns a descriptor."""
        self._charge()
        observer = self._observer()
        obj = observer.mkobj(volume_hint)
        fdesc = FileDescriptor(FileDescriptor.PASSOBJ, passobj=obj,
                               readable=False, writable=False)
        return self.proc.install_fd(fdesc)

    def pass_reviveobj(self, pnode: int, version: int) -> int:
        """Reattach to an object made earlier with pass_mkobj."""
        self._charge()
        observer = self._observer()
        obj = observer.reviveobj(pnode, version)
        fdesc = FileDescriptor(FileDescriptor.PASSOBJ, passobj=obj,
                               readable=False, writable=False)
        return self.proc.install_fd(fdesc)

    def pass_sync(self, fd: int) -> int:
        """Persist the object's provenance even without descendants."""
        self._charge()
        observer = self._observer()
        _, target = self._target(fd)
        hint = getattr(target, "volume_hint", None)
        return observer.sync(target.pnode, hint)
