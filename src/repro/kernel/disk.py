"""Simulated disk with a seek / rotation / transfer cost model.

The disk is a linear array of blocks carved into named *regions*
(journal, data, provenance log, ...).  Costs follow a simple but
honest mechanical model:

* an access within :attr:`DiskParams.sequential_window` blocks of the
  head's position after the previous transfer is sequential -- transfer
  cost only;
* a short hop (within :attr:`DiskParams.short_seek_blocks`) pays a
  track-to-track seek;
* anything longer pays the average seek plus rotational latency.

This is the mechanism behind the paper's Table 2 overheads: provenance
log appends land in a different region than file data, so interleaving
them with data writes converts sequential I/O into seek-bound I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import VolumeError
from repro.kernel.clock import SimClock
from repro.kernel.params import DiskParams


@dataclass
class Region:
    """A contiguous range of blocks with a name and a bump allocator."""

    name: str
    start: int
    length: int
    next_free: int = 0

    def allocate(self, blocks: int) -> int:
        """Allocate ``blocks`` contiguous blocks; returns the first block.

        Regions are large virtual address spaces; running one out means
        the simulation was configured too small, so it raises.
        """
        if self.next_free + blocks > self.length:
            raise VolumeError(
                f"region {self.name!r} out of space: "
                f"{self.next_free + blocks} > {self.length} blocks"
            )
        first = self.start + self.next_free
        self.next_free += blocks
        return first

    @property
    def tail(self) -> int:
        """Absolute block number one past the last allocated block."""
        return self.start + self.next_free


class SimulatedDisk:
    """One disk: regions, a head position, and cost accounting."""

    def __init__(self, clock: SimClock, params: DiskParams | None = None,
                 total_blocks: int = 1 << 26, faults=None):
        self._clock = clock
        self.params = params or DiskParams()
        self.total_blocks = total_blocks
        #: Fault injector (repro.faults); None keeps the I/O paths bare.
        self._faults = faults
        self._regions: dict[str, Region] = {}
        self._next_region_start = 0
        self._head = 0
        # Statistics.
        self.seeks = 0
        self.short_seeks = 0
        self.sequential_accesses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- layout ----------------------------------------------------------

    def add_region(self, name: str, blocks: int) -> Region:
        """Carve a new named region off the end of the disk."""
        if name in self._regions:
            raise VolumeError(f"duplicate region name: {name!r}")
        if self._next_region_start + blocks > self.total_blocks:
            raise VolumeError("disk too small for requested regions")
        region = Region(name, self._next_region_start, blocks)
        self._regions[name] = region
        self._next_region_start += blocks
        return region

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError:
            raise VolumeError(f"no such region: {name!r}") from None

    # -- I/O ---------------------------------------------------------------

    def read(self, block: int, nbytes: int) -> None:
        """Charge the clock for reading ``nbytes`` starting at ``block``."""
        self._access(block, nbytes, "disk_read")
        self.bytes_read += nbytes

    def write(self, block: int, nbytes: int) -> None:
        """Charge the clock for writing ``nbytes`` starting at ``block``."""
        self._access(block, nbytes, "disk_write")
        self.bytes_written += nbytes

    def _access(self, block: int, nbytes: int, category: str) -> None:
        if nbytes < 0:
            raise ValueError("negative I/O size")
        if self._faults is not None:
            site = ("disk.read" if category == "disk_read"
                    else "disk.write")
            self._faults.fire(site, block=block, nbytes=nbytes)
        p = self.params
        distance = abs(block - self._head)
        if distance <= p.sequential_window:
            cost = 0.0
            self.sequential_accesses += 1
        elif distance <= p.short_seek_blocks:
            cost = p.short_seek
            self.short_seeks += 1
        else:
            cost = p.avg_seek + p.rotational
            self.seeks += 1
        cost += nbytes / p.transfer_rate
        self._clock.advance(cost, category)
        # Head finishes just past the last block touched.
        nblocks = max(1, -(-nbytes // p.block_size))
        self._head = block + nblocks

    def clustered_write(self, nbytes: int, barrier: float = 0.0) -> None:
        """A write-back append to a clustered region (journal-style).

        Such writes are queued and committed in batches near their
        region, so they cost a track-to-track seek plus transfer (plus
        an optional ordering ``barrier``) and do not displace the head
        that foreground reads depend on.
        """
        if nbytes < 0:
            raise ValueError("negative I/O size")
        if self._faults is not None:
            self._faults.fire("disk.clustered_write", nbytes=nbytes)
        self.short_seeks += 1
        cost = self.params.short_seek + barrier + nbytes / self.params.transfer_rate
        self._clock.advance(cost, "disk_write")
        self.bytes_written += nbytes
