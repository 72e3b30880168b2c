"""Lasagna: the provenance-aware file system (section 5.6).

Lasagna is a *stackable* file system (the paper built it on the eCryptfs
code base) interposed above an ext3-style volume.  It implements the
DPAPI in addition to the regular VFS calls:

* data writes flush the provenance log first (**write-ahead
  provenance**), wrap the flush in a transaction, and record an MD5 of
  the data so recovery can detect in-flight writes;
* data reads and writes pay the stackable-file-system tax: a per-page
  copy between the upper and lower page caches (double buffering) --
  the effect behind Postmark's overhead in the paper's Table 2;
* provenance-only writes (``append_provenance``) buffer records until
  the next data write or sync forces them out, preserving WAP order.
"""

from __future__ import annotations

from typing import Optional

from repro.core.records import Attr, Bundle, ProvenanceRecord, RecordBatch
from repro.kernel.params import SimParams
from repro.kernel.vfs import Inode
from repro.kernel.volume import Volume
from repro.obs import NULL_OBS
from repro.storage.log import ProvenanceLog, data_digest, md5_value


class Lasagna:
    """Stackable provenance-aware file system over one volume."""

    def __init__(self, volume: Volume, params: Optional[SimParams] = None,
                 obs=NULL_OBS, faults=None):
        if not volume.pass_capable:
            from repro.core.errors import NotPassVolume
            raise NotPassVolume(
                f"volume {volume.name!r} was not created PASS-capable"
            )
        self.volume = volume
        self.params = params or SimParams()
        self.obs = obs
        #: Fault injector (repro.faults); None keeps the write path bare.
        self._faults = faults
        #: The volume's one WAP log.
        self.log = ProvenanceLog(
            volume.clock, self.params.log,
            disk_write=self._log_disk_write,
            faults=faults, obs=obs, volume_name=volume.name,
        )
        volume.lasagna = self
        volume.fs_top = self
        self._waive_barrier = False
        #: Ablation switch: write provenance PASSv1-style -- synchronous,
        #: indexed-database-like writes (full seek per flush) instead of
        #: the clustered log + Waldo pipeline.
        self.passv1_direct_db = False
        # Statistics.
        self.stack_pages_copied = 0
        self.data_writes = 0
        # WAP log bytes/flushes and the stackable-copy tax, per volume
        # (harvested at snapshot time; the write path stays bare).
        obs.add_collector("lasagna", self._obs_counters,
                          volume=volume.name)
        obs.add_collector("lasagna", self.log.obs_counters,
                          volume=volume.name)

    def _obs_counters(self) -> dict:
        return {
            "stack_pages_copied": self.stack_pages_copied,
            "data_writes": self.data_writes,
        }

    # -- log plumbing ----------------------------------------------------------------

    def _log_disk_write(self, nbytes: int) -> None:
        """Append ``nbytes`` to the volume's provenance-log region.

        Log appends are clustered write-back I/O, but each flush is an
        ordering point (provenance must land *before* the data it
        describes), which charges the WAP barrier -- the interference
        mechanism behind the paper's Table 2 elapsed-time overheads.
        """
        region = self.volume.provlog_region
        blocks = max(1, -(-nbytes // self.volume.block_size))
        first = region.allocate(blocks)
        if self.passv1_direct_db:
            # PASSv1 regression: indexed B-tree writes, random placement,
            # no clustering -- a full seek per flush plus index update I/O.
            self.volume.disk.write(first, nbytes * 2)
            return
        barrier = 0.0 if self._waive_barrier else (
            self.volume.disk.params.wap_barrier)
        self.volume.disk.clustered_write(nbytes, barrier=barrier)

    def append_provenance(self, bundle: Bundle) -> None:
        """Buffer records ahead of dependent data.

        The two carriers differ in who orders the flush.  A
        :class:`RecordBatch` (an analyzer batch) goes through
        ``append_batch``, which may group-commit as soon as the buffer
        crosses a threshold.  A :class:`Bundle` (records admitted one at
        a time: a freeze outside a batch, a finalized record off the NFS
        wire, ``pass_sync``) goes through ``append``, which never
        commits on its own: the records wait for the caller's next
        explicit flush.  Do not merge the branches -- an earlier group
        commit is an extra WAP barrier, and simulated elapsed time moves
        (docs/PERFORMANCE.md, "Two routes to the log").
        """
        cost = self.params.cpu.log_encode * len(bundle)
        if cost:
            self.volume.clock.advance(cost, "provenance_cpu")
        if isinstance(bundle, RecordBatch):
            self.obs.observe("lasagna", "batch_size", len(bundle),
                             volume=self.volume.name)
            if bundle:
                self.log.append_batch(bundle)
        elif bundle:
            self.log.append(bundle)

    def sync(self) -> None:
        """Flush the log, rotate it, and let Waldo drain it."""
        with self.obs.span("lasagna.sync", layer="lasagna",
                           volume=self.volume.name):
            self.log.flush()
            self.log.rotate()

    def flush_buffered(self) -> None:
        """Flush the log if it holds buffered records (the journal's
        ordered-mode coupling: metadata commits force pending
        provenance out first)."""
        if self.log.buffered_records:
            self.log.flush()

    # -- stackable data path -----------------------------------------------------------

    def _stack_cost(self, nbytes: int) -> None:
        pages = max(1, -(-nbytes // self.volume.block_size))
        self.stack_pages_copied += pages
        cost = pages * self.params.cache.stack_copy_cost
        self.volume.clock.advance(cost, "stack_copy")

    def write_bytes(self, inode: Inode, offset: int, data: Optional[bytes],
                    length: Optional[int] = None) -> int:
        """The DPAPI pass_write data path: WAP flush, then the write."""
        nbytes = len(data) if data is not None else (length or 0)
        # Record the data checksum with the provenance (recovery evidence),
        # then make all of it durable before the data itself (WAP).  For
        # large writes the ordering point hides inside the multi-block
        # transfer, so the barrier latency is waived.
        digest = data_digest(data, nbytes)
        self.log.append(ProvenanceRecord(
            inode.ref(), Attr.MD5, md5_value(offset, nbytes, digest),
        ))
        self._waive_barrier = nbytes >= 65536
        try:
            self.log.flush(txn_subject=inode.ref())
        finally:
            self._waive_barrier = False
        if self._faults is not None:
            # The canonical WAP window: provenance durable, data not.
            self._faults.fire("lasagna.write.pre_data",
                              pnode=inode.pnode, offset=offset,
                              nbytes=nbytes)
        self._stack_cost(nbytes)
        self.data_writes += 1
        written = self.volume.write_bytes(inode, offset, data, length)
        if self._faults is not None:
            # Ground truth for the WAP checker: this write completed,
            # so its provenance must survive recovery (or be flagged).
            self._faults.fire("lasagna.write.post_data",
                              pnode=inode.pnode, offset=offset,
                              nbytes=nbytes)
        return written

    def read_bytes(self, inode: Inode, offset: int, length: int) -> bytes:
        """Read through the stack (upper-cache copy cost applies)."""
        data = self.volume.read_bytes(inode, offset, length)
        self._stack_cost(len(data))
        return data

    def truncate(self, inode: Inode, size: int) -> None:
        """Pass-through metadata operation."""
        self.volume.truncate(inode, size)

    # -- crash simulation -----------------------------------------------------------------

    def crash(self, drop_tail_bytes: int = 0) -> int:
        """Machine crash: unflushed provenance is lost, and an
        optional torn tail comes off the log.  Returns lost record
        count."""
        return self.log.crash(drop_tail_bytes)

    def __repr__(self) -> str:
        return f"<Lasagna over {self.volume.name}>"
