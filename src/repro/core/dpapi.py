"""The Disclosed Provenance API (DPAPI), section 5.2.

The DPAPI is the universal interface of PASSv2: applications use it to
disclose provenance to the kernel, kernel components use it among
themselves, and the same operations travel over the wire to PA-NFS
servers.  Six calls::

    pass_read(obj)                    -> (data, ObjectRef)
    pass_write(obj, data, bundle)
    pass_freeze(obj)                  -> new version
    pass_mkobj()                      -> handle
    pass_reviveobj(pnode, version)    -> handle
    pass_sync(obj)

plus two concepts: the *pnode number* and the *provenance record*
(:mod:`repro.core.pnode`, :mod:`repro.core.records`).

This module defines the abstract interface and :class:`PassObject`, the
kind of object ``pass_mkobj`` creates: a provenanced entity with no file
system manifestation (a browser session, a workflow operator, a data
set).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.pnode import Versioned
from repro.core.records import Bundle


class PassObject(Versioned):
    """An application-defined provenanced object (``pass_mkobj``).

    Referenced like a file (through a descriptor) but with no data; it
    exists to carry provenance records and to anchor relationships
    between abstraction layers.  Its provenance is flushed to disk only
    if it becomes part of the ancestry of a persistent object, or via
    ``pass_sync``.
    """

    def __init__(self, pnode: int, volume_hint: Optional[str] = None):
        self.pnode = pnode
        self.version = 0
        #: Name of the PASS volume the creator wants the provenance on,
        #: or None to inherit from a persistent descendant / the default.
        self.volume_hint = volume_hint

    def __repr__(self) -> str:
        return f"<PassObject pnode={self.pnode} v{self.version}>"


class DPAPI(abc.ABC):
    """Abstract DPAPI: implemented by Lasagna, PA-NFS, and libpass.

    Layers stack by each accepting these calls from above and issuing
    them below; the ``obj`` argument is whatever handle type the layer
    uses (an inode, a descriptor, a wire file handle).
    """

    @abc.abstractmethod
    def pass_read(self, obj, offset: int = 0, length: int = -1):
        """Read data plus the exact identity (pnode, version) read."""

    @abc.abstractmethod
    def pass_write(self, obj, data: Optional[bytes], bundle: Bundle,
                   offset: int = 0, length: Optional[int] = None) -> int:
        """Write data (or provenance alone) together with its bundle."""

    @abc.abstractmethod
    def pass_freeze(self, obj) -> int:
        """Create a new version of ``obj`` (cycle breaking); returns it."""

    @abc.abstractmethod
    def pass_mkobj(self, volume_hint: Optional[str] = None):
        """Create an application-level provenanced object."""

    @abc.abstractmethod
    def pass_reviveobj(self, pnode: int, version: int):
        """Reattach to an object previously created by ``pass_mkobj``."""

    @abc.abstractmethod
    def pass_sync(self, obj) -> None:
        """Force the object's provenance to persistent storage."""
