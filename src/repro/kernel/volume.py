"""Volumes: ext3-style file systems with a journal and a data region.

A volume owns an inode table, allocates disk blocks for file data, and
charges the simulated disk for I/O.  The baseline configuration models
ext3 in *ordered* mode: metadata operations append small records to the
volume's journal region; data writes go straight to the data region.

A PASS-enabled volume additionally owns a pnode allocator and, once the
storage layer attaches Lasagna (:mod:`repro.storage.lasagna`), a
provenance log region.  The kernel's write path goes through
``volume.fs_top`` so that Lasagna can interpose (stackable file system).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.core.errors import IsADirectory, VolumeError
from repro.core.pnode import PnodeAllocator
from repro.kernel.cache import PageCache
from repro.kernel.clock import SimClock
from repro.kernel.disk import SimulatedDisk
from repro.kernel.vfs import Inode

#: Bytes journalled per metadata operation (ext3 ordered mode).
JOURNAL_RECORD_BYTES = 512

#: Default region sizes, in blocks.
DATA_REGION_BLOCKS = 1 << 23        # 32 GB of 4K blocks
JOURNAL_REGION_BLOCKS = 1 << 15     # 128 MB
PROVLOG_REGION_BLOCKS = 1 << 19     # 2 GB

#: Volume ids are globally unique across every machine in a simulation,
#: because pnode numbers embed them and cross machines over NFS.  The
#: mint is an itertools.count: nothing can rebind or rewind the
#: sequence.
_VOLUME_IDS = itertools.count(1)


def allocate_volume_id() -> int:
    """Issue the next globally unique volume id."""
    return next(_VOLUME_IDS)


class Volume:
    """One mounted file system on one disk."""

    def __init__(self, name: str, volume_id: int, clock: SimClock,
                 disk: SimulatedDisk, cache: PageCache,
                 pass_capable: bool = False):
        self.name = name
        self.volume_id = volume_id
        self.clock = clock
        self.disk = disk
        self.cache = cache
        self.pass_capable = pass_capable
        self.mountpoint: Optional[str] = None
        self.block_size = disk.params.block_size

        self.journal_region = disk.add_region(f"{name}.journal",
                                              JOURNAL_REGION_BLOCKS)
        self.data_region = disk.add_region(f"{name}.data", DATA_REGION_BLOCKS)
        self.provlog_region = (
            disk.add_region(f"{name}.provlog", PROVLOG_REGION_BLOCKS)
            if pass_capable else None
        )

        self.pnodes = PnodeAllocator(volume_id) if pass_capable else None
        #: Interposition point: Lasagna replaces this when attached.
        self.fs_top: "Volume" = self
        #: Lasagna instance once the storage layer attaches one.
        self.lasagna = None
        #: Called with the dying inode when its link count reaches zero.
        self.on_drop_inode: Optional[Callable[[Inode], None]] = None

        self._inodes: dict[int, Inode] = {}
        self._next_ino = 2            # 1 is reserved; 2 is the root, as in ext
        self.root = self._make_inode(Inode.DIR)

        # Statistics for the benchmarks.
        self.data_bytes_written = 0
        self.data_bytes_read = 0
        self.metadata_ops = 0

    # -- inode management ----------------------------------------------------

    def _make_inode(self, kind: str) -> Inode:
        pnode = self.pnodes.allocate() if self.pnodes is not None else 0
        inode = Inode(self, self._next_ino, kind, pnode)
        self._inodes[self._next_ino] = inode
        self._next_ino += 1
        return inode

    def create_inode(self, kind: str) -> Inode:
        """Allocate an inode, charging one journalled metadata op."""
        self.journal_op()
        return self._make_inode(kind)

    def inode(self, ino: int) -> Inode:
        """Look up an inode by number."""
        try:
            return self._inodes[ino]
        except KeyError:
            raise VolumeError(f"{self.name}: no inode {ino}") from None

    def drop_inode(self, inode: Inode) -> None:
        """Final unlink: notify provenance machinery, then free."""
        self.journal_op()
        if self.on_drop_inode is not None:
            self.on_drop_inode(inode)
        self._inodes.pop(inode.ino, None)

    def live_inodes(self) -> list[Inode]:
        """All inodes currently allocated."""
        return list(self._inodes.values())

    # -- cost accounting -------------------------------------------------------

    def journal_op(self, nbytes: int = JOURNAL_RECORD_BYTES) -> None:
        """Append one metadata record to the journal (ordered mode).

        Ordered mode couples metadata commits to pending provenance:
        if Lasagna has buffered records when a journal transaction
        commits, they must flush first (the write-ahead-provenance
        ordering extends across metadata operations).  This coupling is
        why metadata-heavy workloads (Mercurial activity) pay the
        largest PASSv2 overhead in the paper's Table 2.
        """
        self.metadata_ops += 1
        self.journal_region.next_free = (
            (self.journal_region.next_free + 1) % self.journal_region.length
        )
        # The journal is a sequential, batch-committed region.
        self.disk.clustered_write(nbytes)
        if self.lasagna is not None:
            self.lasagna.flush_buffered()

    def _ensure_blocks(self, inode: Inode, size: int) -> None:
        """Grow the inode's extents to cover ``size`` bytes."""
        needed = -(-size // self.block_size)
        if needed <= inode.allocated_blocks:
            return
        grow = needed - inode.allocated_blocks
        first = self.data_region.allocate(grow)
        inode.extents.append((first, grow))
        inode.allocated_blocks = needed

    # -- data path (ext3 semantics; Lasagna interposes via fs_top) -----------

    def write_bytes(self, inode: Inode, offset: int, data: Optional[bytes],
                    length: Optional[int] = None) -> int:
        """Write to a file: real ``data`` or, when data is None, a hole of
        ``length`` synthetic bytes.  Returns the byte count written."""
        if inode.data is None:
            raise IsADirectory(f"inode {inode.ino} is a directory")
        if data is not None:
            length = len(data)
        if length is None:
            raise ValueError("either data or length is required")
        end = offset + length
        self._ensure_blocks(inode, end)
        if data is not None:
            inode.data.write(offset, data)
        else:
            inode.data.write_hole(offset, length)
        first_block = inode.block_for(offset)
        self.disk.write(first_block, length)
        self.cache.write(
            self.volume_id,
            inode.block_runs(offset // self.block_size,
                             max(offset, end - 1) // self.block_size))
        self.data_bytes_written += length
        return length

    def read_bytes(self, inode: Inode, offset: int, length: int) -> bytes:
        """Read from a file, charging the disk for cache misses."""
        if inode.data is None:
            raise IsADirectory(f"inode {inode.ino} is a directory")
        length = min(length, max(0, inode.size - offset))
        if length > 0:
            self._charge_read(inode, offset, length)
        self.data_bytes_read += length
        return inode.data.read(offset, length)

    def _charge_read(self, inode: Inode, offset: int, length: int) -> None:
        """Charge cache-missing block runs of [offset, offset+length)."""
        runs = inode.block_runs(offset // self.block_size,
                                (offset + length - 1) // self.block_size)
        for block, count in self.cache.read(self.volume_id, runs):
            self.disk.read(block, count * self.block_size)

    def truncate(self, inode: Inode, size: int) -> None:
        """Set file size (metadata op)."""
        if inode.data is None:
            raise IsADirectory(f"inode {inode.ino} is a directory")
        self.journal_op()
        inode.data.truncate(size)

    # -- space accounting (Table 3 baseline column) ---------------------------

    def used_bytes(self) -> int:
        """Total logical bytes of all live files (the 'Ext3' column)."""
        return sum(inode.size for inode in self._inodes.values()
                   if inode.data is not None)

    def __repr__(self) -> str:
        kind = "PASS" if self.pass_capable else "ext3"
        return f"<Volume {self.name} ({kind}) at {self.mountpoint}>"
