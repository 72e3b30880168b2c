"""Pnode numbers and object identity.

A *pnode number* is the handle for an object's provenance: "akin to an
inode number, but never recycled" (paper section 5.2).  Identity of a
specific immutable state of an object is the pair (pnode, version) --
versions are created by ``pass_freeze`` (cycle avoidance), never reused.

Pnode numbers are globally unique across the whole simulated installation.
We partition the 63-bit space by volume: the top bits carry the volume id
that allocated the number, the low bits a per-volume counter.  Volume id 0
is the *transient* space used for objects that are not (yet) persistent --
processes, pipes, and ``pass_mkobj`` objects.  The distributor later
decides which volume's log such an object's provenance lands in; the pnode
number itself never changes (that is what makes ``pass_reviveobj`` safe
across crashes: a pnode is "just a number").
"""

from __future__ import annotations

from typing import NamedTuple

#: Number of low bits reserved for the per-volume counter.
_LOCAL_BITS = 40
_LOCAL_MASK = (1 << _LOCAL_BITS) - 1

#: Volume id of the transient (not-yet-persistent) pnode space.
TRANSIENT_VOLUME = 0


class ObjectRef(NamedTuple):
    """Identity of one immutable version of one object.

    ``pnode``   -- the object's pnode number (never recycled).
    ``version`` -- the version as of the reference; bumped by freeze.
    """

    pnode: int
    version: int

    def __str__(self) -> str:
        return f"{self.pnode}:{self.version}"

    @property
    def volume_id(self) -> int:
        """Id of the volume whose allocator issued this pnode."""
        return volume_of(self.pnode)


class Versioned:
    """Base of every object with a ``pnode`` and a ``version``: the one
    place an object's :class:`ObjectRef` is minted.

    ``ref()`` returns the instance it minted last while ``(pnode,
    version)`` still match and mints a new one otherwise, so assigning
    either field (adopt, freeze, a PA-NFS version bump) needs no hook
    and a stale ref is never returned.  A version's records then share
    one ref, which the collector tracks once, not once per record.
    """

    _ref: ObjectRef = ObjectRef(0, -1)      # matches no (pnode, version)

    def ref(self) -> ObjectRef:
        """Current (pnode, version) identity."""
        ref = self._ref
        if ref.version != self.version or ref.pnode != self.pnode:
            ref = self._ref = ObjectRef(self.pnode, self.version)
        return ref


def make_pnode(volume_id: int, local: int) -> int:
    """Compose a pnode number from a volume id and a local counter."""
    if volume_id < 0 or local < 0:
        raise ValueError("volume id and local counter must be non-negative")
    if local > _LOCAL_MASK:
        raise ValueError(f"per-volume pnode counter overflow: {local}")
    return (volume_id << _LOCAL_BITS) | local


def volume_of(pnode: int) -> int:
    """Return the volume id encoded in a pnode number."""
    return pnode >> _LOCAL_BITS


def local_of(pnode: int) -> int:
    """Return the per-volume counter encoded in a pnode number."""
    return pnode & _LOCAL_MASK


class PnodeAllocator:
    """Monotonic, never-recycled pnode allocator for one volume.

    The first pnode issued is ``make_pnode(volume_id, 1)``; local counter 0
    is reserved so that a zero pnode can mean "unassigned".
    """

    def __init__(self, volume_id: int, start: int = 1):
        if start < 1:
            raise ValueError("pnode counters start at 1; 0 is reserved")
        self.volume_id = volume_id
        self._next = start

    def allocate(self) -> int:
        """Return a fresh pnode number; never returns the same one twice."""
        pnode = make_pnode(self.volume_id, self._next)
        self._next += 1
        return pnode

    @property
    def high_water(self) -> int:
        """The next local counter value (for persistence/recovery)."""
        return self._next

    def restore(self, high_water: int) -> None:
        """Reset the counter after recovery; may only move forward."""
        if high_water < self._next:
            raise ValueError("pnode allocator may never move backwards")
        self._next = high_water
