"""Cost-model parameters for the simulated machine.

All times are in (simulated) seconds, all sizes in bytes.  The defaults
are loosely calibrated to a 2009-era machine like the paper's testbed
(3 GHz Pentium 4, 512 MB RAM, 7200 RPM disk, gigabit LAN) so that the
*shape* of the paper's Table 2/3 results emerges from the mechanisms the
paper identifies: provenance log writes interfering with data writes
(extra seeks), stackable-file-system double buffering, and network round
trips diluting local overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DiskParams:
    """Seek/rotation/transfer model of one 7200 RPM disk."""

    #: Average seek time for a long head movement.
    avg_seek: float = 0.0085
    #: Track-to-track seek for short movements.
    short_seek: float = 0.0008
    #: Head movements of at most this many blocks count as "short".
    short_seek_blocks: int = 256
    #: Average rotational latency (half a revolution at 7200 RPM).
    rotational: float = 0.00417
    #: Sustained transfer rate, bytes per second.
    transfer_rate: float = 60e6
    #: Block (page) size.
    block_size: int = 4096
    #: Adjacent-block tolerance: a target within this many blocks of the
    #: current head position after the last transfer is sequential.
    sequential_window: int = 64
    #: Ordering-barrier latency charged per write-ahead-provenance log
    #: commit: the log append itself is a clustered (short-seek) write,
    #: but WAP requires it to be *ordered before* the data, which costs
    #: part of a revolution at the commit point.
    wap_barrier: float = 0.002


@dataclass
class CacheParams:
    """Page-cache model."""

    #: Cache capacity in pages (512 MB of RAM, most of it page cache).
    capacity_pages: int = 98304
    #: Extra per-page CPU cost of a stackable file system copying between
    #: its own pages and the lower file system's pages (double buffering).
    stack_copy_cost: float = 2.4e-6
    #: Fraction of effective cache left for file data when a stackable
    #: file system duplicates pages (upper + lower caches compete; the
    #: upper cache mostly holds recently-touched pages twice).
    stack_cache_factor: float = 0.85


@dataclass
class CpuParams:
    """Per-operation CPU costs."""

    #: Base cost of entering/leaving any system call.
    syscall: float = 1.5e-6
    #: Observer + analyzer cost of producing one provenance record.
    provenance_record: float = 6.0e-6
    #: Cost of encoding one record into the log (Lasagna side).
    log_encode: float = 1.2e-6
    #: Cost of a name lookup per path component.
    path_component: float = 0.8e-6


@dataclass
class NetParams:
    """Simulated LAN between NFS client and server."""

    #: One NFS operation's effective latency: wire round trip plus
    #: server request processing (2009-era LAN + nfsd).
    rtt: float = 0.0009
    #: Wire bandwidth in bytes per second (gigabit).
    bandwidth: float = 110e6
    #: Maximum payload of one provenance transfer (64 KB, the NFSv4
    #: client block size from section 6.1.2).
    max_block: int = 65536
    #: Per-page cost of the nfsd <-> stackable-file-system interaction:
    #: data arriving in wsize-granular RPCs is copied through Lasagna's
    #: upper pages before reaching the lower file system, defeating the
    #: server's zero-copy path.  The paper attributes 14.8 of Postmark's
    #: 16.8 PA-NFS points to exactly this stackable double buffering.
    nfsd_stack_copy: float = 26e-6


@dataclass
class LogParams:
    """Write-ahead provenance log policy (section 5.6)."""

    #: Rotate the log once it exceeds this many bytes.
    max_size: int = 4 * 1024 * 1024
    #: Rotate the log after this much simulated dormancy.
    dormancy: float = 30.0
    #: Group commit: flush the buffer once it holds this many records
    #: (0 disables the record threshold).  Threshold flushes happen
    #: *earlier* than the next WAP ordering point, never later, so they
    #: can only strengthen the write-ahead-provenance invariant.
    group_commit_records: int = 512
    #: Group commit: flush once the buffered encoded bytes reach this
    #: size (0 disables the byte threshold).
    group_commit_bytes: int = 256 * 1024


@dataclass
class SimParams:
    """Aggregate simulation parameters.

    ``scale`` uniformly shrinks workload sizes so the benchmark suite
    runs in seconds of real time while preserving relative overheads.
    """

    disk: DiskParams = field(default_factory=DiskParams)
    cache: CacheParams = field(default_factory=CacheParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    net: NetParams = field(default_factory=NetParams)
    log: LogParams = field(default_factory=LogParams)
    scale: float = 1.0
