"""Virtual file system: sparse file data, inodes, directories, mounts.

File *content* is real (applications like the workflow engine transform
actual bytes), but stored sparsely: regions written as "holes" by bulk
workloads cost only bookkeeping, while explicitly written bytes are kept
verbatim.  Reads materialize zeros for holes.

The VFS resolves paths across a mount table of volumes and performs
metadata operations; all I/O *cost* accounting lives in the volume layer
(:mod:`repro.kernel.volume`), keeping this module pure data structure.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Iterator

from repro.core.errors import (
    CrossDeviceLink,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.core.pnode import Versioned

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.kernel.volume import Volume


class SparseFile:
    """Byte store keeping only explicitly written data; holes read as zeros."""

    def __init__(self) -> None:
        self._chunks: dict[int, bytes] = {}
        self._offsets: list[int] = []   # sorted keys of _chunks
        self._size = 0

    @property
    def size(self) -> int:
        """Logical file size in bytes."""
        return self._size

    @property
    def real_bytes(self) -> int:
        """Bytes of actual (non-hole) data stored."""
        return sum(len(chunk) for chunk in self._chunks.values())

    def write(self, offset: int, data: bytes) -> None:
        """Write real bytes at ``offset``, replacing anything beneath."""
        if offset < 0:
            raise ValueError("negative offset")
        if not data:
            return
        self._clear_range(offset, offset + len(data))
        self._insert(offset, bytes(data))
        self._size = max(self._size, offset + len(data))
        self._coalesce(offset)

    def write_hole(self, offset: int, length: int) -> None:
        """Write ``length`` synthetic (zero) bytes: size grows, no storage."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset or length")
        if length == 0:
            return
        self._clear_range(offset, offset + length)
        self._size = max(self._size, offset + length)

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; holes come back as zeros."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset or length")
        length = min(length, max(0, self._size - offset))
        if length == 0:
            return b""
        end = offset + length
        offsets = self._offsets
        index = bisect.bisect_right(offsets, offset) - 1
        if (index < 0 or offsets[index] + len(self._chunks[offsets[index]])
                <= offset):
            # Nothing reaches offset from the left; the next chunk, if
            # it starts inside the range, is the first to copy.
            index += 1
            if index == len(offsets) or offsets[index] >= end:
                return bytes(length)        # all hole
        out = bytearray(length)
        while index < len(offsets):
            start = offsets[index]
            if start >= end:
                break
            chunk = self._chunks[start]
            lo = max(start, offset)
            hi = min(start + len(chunk), end)
            out[lo - offset:hi - offset] = chunk[lo - start:hi - start]
            index += 1
        return bytes(out)

    def truncate(self, size: int) -> None:
        """Set the file size, discarding data beyond it."""
        if size < 0:
            raise ValueError("negative size")
        self._clear_range(size, max(size, self._size))
        self._size = size

    # -- internals ---------------------------------------------------------

    def _insert(self, offset: int, data: bytes) -> None:
        self._chunks[offset] = data
        bisect.insort(self._offsets, offset)

    def _remove(self, offset: int) -> bytes:
        data = self._chunks.pop(offset)
        index = bisect.bisect_left(self._offsets, offset)
        del self._offsets[index]
        return data

    def _clear_range(self, lo: int, hi: int) -> None:
        """Remove or trim chunks overlapping [lo, hi)."""
        if lo >= hi:
            return
        index = bisect.bisect_right(self._offsets, lo) - 1
        if index < 0:
            index = 0
        doomed: list[int] = []
        repairs: list[tuple[int, bytes]] = []
        while index < len(self._offsets):
            start = self._offsets[index]
            if start >= hi:
                break
            chunk = self._chunks[start]
            end = start + len(chunk)
            if end <= lo:
                index += 1
                continue
            doomed.append(start)
            if start < lo:
                repairs.append((start, chunk[:lo - start]))
            if end > hi:
                repairs.append((hi, chunk[hi - start:]))
            index += 1
        for start in doomed:
            self._remove(start)
        for start, data in repairs:
            if data:
                self._insert(start, data)

    def _coalesce(self, around: int) -> None:
        """Merge chunks adjacent to the one at/near ``around``."""
        index = max(0, bisect.bisect_right(self._offsets, around) - 2)
        while index + 1 < len(self._offsets):
            start = self._offsets[index]
            nxt = self._offsets[index + 1]
            chunk = self._chunks[start]
            if start + len(chunk) == nxt:
                merged = chunk + self._remove(nxt)
                self._chunks[start] = merged
            else:
                index += 1
            if start > around + 1:
                break


class Inode(Versioned):
    """One file-system object on one volume (``ref()`` is meaningful on
    PASS volumes only)."""

    FILE = "file"
    DIR = "dir"

    def __init__(self, volume: "Volume", ino: int, kind: str, pnode: int = 0):
        self.volume = volume
        self.ino = ino
        self.kind = kind
        self.pnode = pnode           # 0 on non-PASS volumes
        self.version = 0
        self.nlink = 1
        self.data = SparseFile() if kind == self.FILE else None
        self.entries: dict[str, int] = {} if kind == self.DIR else None
        self.extents: list[tuple[int, int]] = []   # (first block, nblocks)
        self.allocated_blocks = 0

    @property
    def is_dir(self) -> bool:
        return self.kind == self.DIR

    @property
    def size(self) -> int:
        return self.data.size if self.data is not None else 0

    def block_for(self, offset: int) -> int:
        """Absolute disk block holding byte ``offset`` (for cost model)."""
        block_size = self.volume.block_size
        logical = offset // block_size
        for first, count in self.extents:
            if logical < count:
                return first + logical
            logical -= count
        # Unallocated: pretend the access lands just past the last extent.
        if self.extents:
            first, count = self.extents[-1]
            return first + count
        return self.volume.data_region.tail

    def block_runs(self, first_logical: int,
                   last_logical: int) -> list[range]:
        """Disk blocks of logical blocks ``first..last`` in file order,
        as one ``range`` per extent touched, from one walk of the
        extents.  Every logical block past the last extent is the
        one-block range ``block_for`` gives it (the same block again)."""
        runs: list[range] = []
        logical, last = first_logical, last_logical
        tail = self.volume.data_region.tail
        for first, count in self.extents:
            if logical > last:
                return runs
            if logical < count:
                stop = min(count, last + 1)
                runs.append(range(first + logical, first + stop))
                logical = stop
            # Rebase both ends onto the next extent's first block.
            logical -= count
            last -= count
            tail = first + count
        if logical <= last:
            runs.extend([range(tail, tail + 1)] * (last + 1 - logical))
        return runs

    def __repr__(self) -> str:
        return f"<Inode {self.volume.name}:{self.ino} {self.kind} pnode={self.pnode}>"


class VFS:
    """Mount table and path operations spanning volumes."""

    def __init__(self) -> None:
        self._mounts: dict[str, "Volume"] = {}
        #: (mount point, prefix its descendants start with, volume),
        #: longest mount point first: the first match is the deepest.
        self._by_depth: list[tuple[str, str, "Volume"]] = []

    # -- mounting ----------------------------------------------------------

    def mount(self, volume: "Volume", path: str) -> None:
        """Mount ``volume`` at absolute ``path`` ('/' or '/name')."""
        path = self._norm(path)
        if path in self._mounts:
            raise FileExists(f"mount point busy: {path}")
        self._mounts[path] = volume
        self._index_mounts()
        volume.mountpoint = path

    def unmount(self, path: str) -> "Volume":
        """Remove the mount at ``path`` and return its volume.  Its
        pages leave the machine's cache with it."""
        path = self._norm(path)
        try:
            volume = self._mounts.pop(path)
        except KeyError:
            raise FileNotFound(f"not a mount point: {path}") from None
        self._index_mounts()
        volume.mountpoint = None
        # An NFS client volume keeps no pages on this machine.
        cache = getattr(volume, "cache", None)
        if cache is not None:
            cache.invalidate_volume(volume.volume_id)
        return volume

    def _index_mounts(self) -> None:
        self._by_depth = sorted(
            ((mount, mount.rstrip("/") + "/", volume)
             for mount, volume in self._mounts.items()),
            key=lambda entry: -len(entry[0]))

    def volume_for(self, path: str) -> tuple["Volume", str]:
        """Longest-prefix match: returns (volume, path relative to it)."""
        return self._volume_for(self._norm(path))

    def _volume_for(self, path: str) -> tuple["Volume", str]:
        """:meth:`volume_for` an already normal path."""
        for mount, prefix, volume in self._by_depth:
            if path.startswith(prefix) or path == mount:
                return volume, path[len(prefix):]
        raise FileNotFound(f"no volume mounted for {path}")

    # -- path operations -----------------------------------------------------

    def resolve(self, path: str) -> Inode:
        """Resolve ``path`` to an inode or raise :class:`FileNotFound`."""
        return self._resolve(self._norm(path))

    def _resolve(self, path: str) -> Inode:
        """:meth:`resolve` an already normal path."""
        volume, rel = self._volume_for(path)
        inode = volume.root
        if not rel:
            return inode
        for part in rel.split("/"):
            if not inode.is_dir:
                raise NotADirectory(path)
            ino = inode.entries.get(part)
            if ino is None:
                raise FileNotFound(path)
            inode = volume.inode(ino)
        return inode

    def resolve_parent(self, path: str) -> tuple["Volume", Inode, str]:
        """Resolve the directory containing ``path``; returns its volume,
        the directory inode, and the final name component."""
        path = self._norm(path)
        if path == "/":
            raise IsADirectory("cannot operate on the root directory itself")
        parent_path, _, name = path.rpartition("/")
        parent = self._resolve(parent_path or "/")
        if not parent.is_dir:
            raise NotADirectory(parent_path or "/")
        return parent.volume, parent, name

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves."""
        try:
            self.resolve(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def create(self, path: str, exclusive: bool = True) -> Inode:
        """Create a regular file; returns its inode."""
        volume, parent, name = self.resolve_parent(path)
        existing = parent.entries.get(name)
        if existing is not None:
            if exclusive:
                raise FileExists(path)
            inode = volume.inode(existing)
            if inode.is_dir:
                raise IsADirectory(path)
            return inode
        inode = volume.create_inode(Inode.FILE)
        parent.entries[name] = inode.ino
        return inode

    def mkdir(self, path: str) -> Inode:
        """Create a directory."""
        volume, parent, name = self.resolve_parent(path)
        if name in parent.entries:
            raise FileExists(path)
        inode = volume.create_inode(Inode.DIR)
        parent.entries[name] = inode.ino
        return inode

    def unlink(self, path: str) -> Inode:
        """Remove a file name; returns the (possibly dying) inode."""
        volume, parent, name = self.resolve_parent(path)
        ino = parent.entries.get(name)
        if ino is None:
            raise FileNotFound(path)
        inode = volume.inode(ino)
        if inode.is_dir:
            raise IsADirectory(path)
        del parent.entries[name]
        inode.nlink -= 1
        if inode.nlink == 0:
            volume.drop_inode(inode)
        return inode

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        volume, parent, name = self.resolve_parent(path)
        ino = parent.entries.get(name)
        if ino is None:
            raise FileNotFound(path)
        inode = volume.inode(ino)
        if not inode.is_dir:
            raise NotADirectory(path)
        if inode.entries:
            raise DirectoryNotEmpty(path)
        del parent.entries[name]
        volume.drop_inode(inode)

    def link(self, existing: str, new: str) -> Inode:
        """Hard link: a second name for the same inode (same volume).

        Provenance is attached to the inode, so both names share one
        provenance history -- the property PA-links relies on when a
        downloaded file is linked or renamed around.
        """
        inode = self.resolve(existing)
        if inode.is_dir:
            raise IsADirectory(existing)
        new_volume, new_parent, new_name = self.resolve_parent(new)
        if inode.volume is not new_volume:
            raise CrossDeviceLink(f"{existing} -> {new}")
        if new_name in new_parent.entries:
            raise FileExists(new)
        new_parent.entries[new_name] = inode.ino
        inode.nlink += 1
        return inode

    def rename(self, old: str, new: str) -> Inode:
        """Rename within one volume; provenance follows the inode."""
        old_volume, old_parent, old_name = self.resolve_parent(old)
        new_volume, new_parent, new_name = self.resolve_parent(new)
        if old_volume is not new_volume:
            raise CrossDeviceLink(f"{old} -> {new}")
        ino = old_parent.entries.get(old_name)
        if ino is None:
            raise FileNotFound(old)
        displaced = new_parent.entries.get(new_name)
        inode = old_volume.inode(ino)
        if displaced is not None and displaced != ino:
            victim_kind = old_volume.inode(displaced)
            if victim_kind.is_dir and not inode.is_dir:
                raise IsADirectory(f"cannot replace directory {new}")
            if not victim_kind.is_dir and inode.is_dir:
                raise NotADirectory(f"cannot replace file {new} with "
                                    f"a directory")
        del old_parent.entries[old_name]
        new_parent.entries[new_name] = ino
        if displaced is not None and displaced != ino:
            victim = old_volume.inode(displaced)
            victim.nlink -= 1
            if victim.nlink == 0:
                old_volume.drop_inode(victim)
        return inode

    def readdir(self, path: str) -> list[str]:
        """Sorted names in a directory."""
        inode = self.resolve(path)
        if not inode.is_dir:
            raise NotADirectory(path)
        return sorted(inode.entries)

    def walk(self, path: str = "/") -> Iterator[tuple[str, Inode]]:
        """Depth-first (path, inode) traversal below ``path``."""
        path = self._norm(path)
        inode = self._resolve(path)
        yield path, inode
        if inode.is_dir:
            base = path.rstrip("/")
            for name in sorted(inode.entries):
                yield from self.walk(f"{base}/{name}")

    @staticmethod
    def _norm(path: str) -> str:
        """Normalize to an absolute path with no trailing slash (except /)."""
        if not path.startswith("/"):
            raise FileNotFound(f"paths must be absolute: {path!r}")
        if ("//" not in path and "/." not in path
                and (not path.endswith("/") or path == "/")):
            return path                     # already normal
        parts = [part for part in path.split("/") if part and part != "."]
        stack: list[str] = []
        for part in parts:
            if part == "..":
                if stack:
                    stack.pop()
            else:
                stack.append(part)
        return "/" + "/".join(stack)
