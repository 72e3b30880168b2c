"""The storage tier: every PASS volume's sharded WAP pipeline, one facade.

The paper's layering deliberately decouples capture (observer /
analyzer / distributor) from storage (Lasagna / Waldo), but one WAP
log, one Waldo drain, and one ProvenanceDatabase per volume still
serialize every record through a single writer.  :class:`StorageTier`
removes that bottleneck without touching the capture layers:

* each PASS volume's log is split into ``shards`` intra-volume shard
  logs; records route by subject-pnode hash (all of a subject's records
  land -- ordered -- in one shard);
* each shard log gets its own Waldo and ProvenanceDatabase, so drains
  are independent per shard and run concurrently (a thread pool over
  the existing group-commit segments) when no fault injector, tracer,
  or journal needs deterministic serial order;
* queries federate at the query layer: :meth:`federated_sources` hands
  the union of every shard database to ``QueryEngine.live``, whose OEM
  graph is arrival-order-insensitive -- the merged live graph answers
  cross-shard joins exactly as the single-shard graph would;
* drained segments are archived per shard and compacted under a
  :class:`CompactionPolicy`, so the store survives months of churn with
  bounded memory.

``System.boot``, crashlab, the benchmarks, and the CLI all construct
storage through this facade; ``BootConfig.shards = 1`` (the default)
reproduces today's single-shard pipeline byte for byte.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import NULL_OBS
from repro.storage import recovery
from repro.storage.database import ProvenanceDatabase
from repro.storage.lasagna import Lasagna
from repro.storage.log import LogSegment
from repro.storage.recovery import RecoveryReport
from repro.storage.waldo import Waldo

#: Supported intra-volume shard keys: ``pnode`` hashes the subject's
#: pnode number across ``shards`` shard logs; ``volume`` disables
#: intra-volume sharding (one shard per volume regardless of count).
SHARD_KEYS = ("pnode", "volume")


@dataclass(frozen=True)
class CompactionPolicy:
    """Bounds on each shard's drained-segment archive.

    Once either bound is exceeded the oldest archived segments are
    folded into :class:`CompactedExtent` summaries (index range, record
    and byte counts) and their raw bytes are reclaimed.
    """

    max_segments: int = 16
    max_bytes: int = 4 * 1024 * 1024


@dataclass
class CompactedExtent:
    """Summary left behind when archived segments are compacted away."""

    first_index: int
    last_index: int
    segments: int
    records: int
    nbytes: int


class SegmentArchive:
    """Drained log segments retained for one shard, bounded by policy.

    Waldo hands every segment here after ingesting it; the archive is
    forensic state (what the database was built from), not a
    correctness dependency -- compaction can always reclaim it.
    """

    def __init__(self, policy: Optional[CompactionPolicy] = None):
        self.policy = policy or CompactionPolicy()
        self.segments: list[LogSegment] = []
        self.extents: list[CompactedExtent] = []
        self.segments_archived = 0
        self.segments_compacted = 0
        self.bytes_reclaimed = 0

    @property
    def archived_bytes(self) -> int:
        return sum(segment.nbytes for segment in self.segments)

    def add(self, segment: LogSegment) -> None:
        """Archive one drained segment, then re-establish the bounds."""
        self.segments.append(segment)
        self.segments_archived += 1
        self.compact()

    def _over_policy(self) -> bool:
        return (len(self.segments) > self.policy.max_segments
                or self.archived_bytes > self.policy.max_bytes)

    def compact(self, force: bool = False) -> int:
        """Fold the oldest segments into summary extents until the
        archive is within policy (all of them when ``force``); returns
        the bytes reclaimed by this pass."""
        reclaimed = 0
        while self.segments and (force or self._over_policy()):
            segment = self.segments.pop(0)
            self._fold(segment)
            self.segments_compacted += 1
            reclaimed += segment.nbytes
        self.bytes_reclaimed += reclaimed
        return reclaimed

    def _fold(self, segment: LogSegment) -> None:
        if self.extents and self.extents[-1].last_index < segment.index:
            extent = self.extents[-1]
            extent.last_index = segment.index
            extent.segments += 1
            extent.records += len(segment.records)
            extent.nbytes += segment.nbytes
            return
        self.extents.append(CompactedExtent(
            first_index=segment.index, last_index=segment.index,
            segments=1, records=len(segment.records),
            nbytes=segment.nbytes))

    def stats(self) -> dict:
        return {
            "segments": len(self.segments),
            "archived_bytes": self.archived_bytes,
            "extents": len(self.extents),
            "segments_archived": self.segments_archived,
            "segments_compacted": self.segments_compacted,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


class _VolumeShards:
    """One PASS volume's shard set (tier-internal)."""

    def __init__(self, volume, lasagna: Lasagna, waldos: list[Waldo],
                 archives: list[SegmentArchive]):
        self.volume = volume
        self.lasagna = lasagna
        self.waldos = waldos
        self.archives = archives
        #: Wall seconds each shard's Waldo spent draining (populated
        #: only while wall timing is enabled; see enable_wall_timing).
        self.drain_seconds = [0.0] * len(waldos)

    @property
    def name(self) -> str:
        return self.volume.name


class StorageTier:
    """Facade over every PASS volume's sharded storage pipeline."""

    def __init__(self, shards: int = 1, shard_key: str = "pnode",
                 compaction: Optional[CompactionPolicy] = None,
                 obs=NULL_OBS, faults=None):
        if int(shards) < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        if shard_key not in SHARD_KEYS:
            raise ValueError(
                f"shard_key must be one of {SHARD_KEYS}, got {shard_key!r}")
        self.shards = int(shards)
        self.shard_key = shard_key
        self.compaction = compaction or CompactionPolicy()
        self.obs = obs
        self._faults = faults
        #: Effective intra-volume shard count (``volume`` keying keeps
        #: the classic one-pipeline-per-volume layout).
        self.shards_per_volume = self.shards if shard_key == "pnode" else 1
        self._volumes: dict[str, _VolumeShards] = {}
        #: Serializes database inserts (and the push feed into the
        #: shared federated OEM graph) across concurrent shard drains.
        self._merge_lock = (threading.Lock()
                            if self.shards_per_volume > 1 else None)
        self._wall_clock: Optional[Callable[[], float]] = None
        self._drain_clock: Optional[Callable[[], float]] = None
        self._collector_registered = False
        self.drains = 0
        self.parallel_drains = 0
        self.federations = 0

    # -- construction -----------------------------------------------------------

    def attach(self, volume, params=None) -> None:
        """Build one PASS volume's shard set (Lasagna with shard logs,
        one Waldo + database + archive per shard).  The one construction
        site ``System.boot`` uses for the whole storage layer."""
        count = self.shards_per_volume
        lasagna = Lasagna(volume, params, obs=self.obs,
                          faults=self._faults, shards=count)
        waldos: list[Waldo] = []
        archives: list[SegmentArchive] = []
        for log in lasagna.shard_logs:
            archive = SegmentArchive(self.compaction)
            waldos.append(Waldo(
                log, name=log.volume_name, obs=self.obs,
                faults=self._faults, insert_lock=self._merge_lock,
                archive=archive))
            archives.append(archive)
        self._volumes[volume.name] = _VolumeShards(
            volume, lasagna, waldos, archives)
        if not self._collector_registered:
            self._collector_registered = True
            self.obs.add_collector("tier", self._obs_counters)

    # -- accessors --------------------------------------------------------------

    def volumes(self) -> list[str]:
        return list(self._volumes)

    def __bool__(self) -> bool:
        return bool(self._volumes)

    def lasagna(self, volume: str) -> Lasagna:
        return self._volumes[volume].lasagna

    def waldos(self, volume: str) -> list[Waldo]:
        """All of one volume's shard Waldos, shard order."""
        return list(self._volumes[volume].waldos)

    def waldo(self, volume: str, shard: int = 0) -> Waldo:
        return self._volumes[volume].waldos[shard]

    def shard_count(self, volume: str) -> int:
        return len(self._volumes[volume].waldos)

    def archives(self, volume: str) -> list[SegmentArchive]:
        return list(self._volumes[volume].archives)

    def databases(self, volume: Optional[str] = None
                  ) -> list[ProvenanceDatabase]:
        """Every shard database (volume order, shard order), or one
        volume's shard databases."""
        if volume is not None:
            return [waldo.database
                    for waldo in self._volumes[volume].waldos]
        return [waldo.database for vs in self._volumes.values()
                for waldo in vs.waldos]

    def database(self, volume: Optional[str] = None,
                 shard: int = 0) -> ProvenanceDatabase:
        """One shard's database (first volume, shard 0 by default).
        Under sharding a volume's provenance spans every shard database
        -- use :meth:`databases` / :meth:`federated_sources` for the
        whole volume."""
        if volume is None:
            volume = next(iter(self._volumes))
        return self._volumes[volume].waldos[shard].database

    # -- ingest path ------------------------------------------------------------

    def sync(self) -> int:
        """Flush + rotate every shard log, then drain every shard;
        returns records inserted (the ``System.sync`` work)."""
        for vs in self._volumes.values():
            vs.lasagna.sync()
        return self.drain()

    def drain(self) -> int:
        """Drain every shard's Waldo; returns records inserted.

        Shards drain concurrently (one worker per shard) when nothing
        needs deterministic serial order: a fault injector, the tracer
        (span trees are per-thread structures), and the journal all
        force the serial path.  ``shards=1`` is always serial -- the
        classic pipeline."""
        self.drains += 1
        jobs = [(vs, index) for vs in self._volumes.values()
                for index in range(len(vs.waldos))]
        parallel = (self.shards_per_volume > 1
                    and len(jobs) > 1
                    and self._faults is None
                    and not self.obs.tracer.enabled
                    and not self.obs.journal.enabled)
        if not parallel:
            inserted = 0
            for vs, index in jobs:
                if self._faults is not None:
                    waldo = vs.waldos[index]
                    self._faults.fire(
                        "shard.drain.pre", volume=vs.name, shard=index,
                        segments=waldo.pending_segment_count)
                inserted += self._drain_one(vs, index)
            return inserted
        self.parallel_drains += 1
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            inserted = sum(pool.map(
                lambda job: self._drain_one(*job), jobs))
        return inserted

    def _drain_one(self, vs: _VolumeShards, index: int) -> int:
        clock = self._drain_clock
        if clock is None:
            return vs.waldos[index].drain()
        started = clock()
        try:
            return vs.waldos[index].drain()
        finally:
            vs.drain_seconds[index] += clock() - started

    # -- query federation --------------------------------------------------------

    def federated_sources(self) -> list[ProvenanceDatabase]:
        """The union of every shard database: the sources of the
        merge-at-query federation.  ``QueryEngine.live`` over this list
        builds one merged OEM graph (kept current by each database's
        push feed), so cross-shard joins resolve exactly as they would
        single-shard -- answers merge at the graph, never per shard."""
        sources = self.databases()
        self.federations += 1
        if self._faults is not None:
            self._faults.fire("federate.merge",
                              volumes=len(self._volumes),
                              sources=len(sources))
        self.obs.event("tier.federate", layer="tier",
                       sources=len(sources))
        return sources

    # -- rollups -----------------------------------------------------------------

    def sizes(self, volume: Optional[str] = None) -> dict:
        """Tier-wide (or one volume's) database/index byte sizes.

        The rollup ``Waldo.sizes()`` cannot provide under sharding:
        totals sum over every shard, with the per-shard breakdown under
        ``"per_shard"`` (keyed by shard label)."""
        totals: dict = {"database": 0, "indexes": 0, "total": 0}
        per_shard: dict[str, dict] = {}
        targets = ([self._volumes[volume]] if volume is not None
                   else list(self._volumes.values()))
        for vs in targets:
            for waldo in vs.waldos:
                sizes = waldo.database.sizes()
                for key in ("database", "indexes", "total"):
                    totals[key] += sizes[key]
                per_shard[waldo.name] = sizes
        totals["per_shard"] = per_shard
        return totals

    def compact(self) -> dict:
        """Force-compact every shard archive; returns rollup stats."""
        reclaimed = 0
        segments = 0
        for vs in self._volumes.values():
            for archive in vs.archives:
                before = archive.segments_compacted
                reclaimed += archive.compact(force=True)
                segments += archive.segments_compacted - before
        return {"segments_compacted": segments,
                "bytes_reclaimed": reclaimed}

    def _obs_counters(self) -> dict:
        archived = compacted = reclaimed = retained = 0
        for vs in self._volumes.values():
            for archive in vs.archives:
                archived += archive.segments_archived
                compacted += archive.segments_compacted
                reclaimed += archive.bytes_reclaimed
                retained += len(archive.segments)
        return {
            "volumes": len(self._volumes),
            "shards": sum(len(vs.waldos)
                          for vs in self._volumes.values()),
            "drains": self.drains,
            "parallel_drains": self.parallel_drains,
            "federations": self.federations,
            "segments_archived": archived,
            "segments_compacted": compacted,
            "segments_retained": retained,
            "archive_bytes_reclaimed": reclaimed,
        }

    # -- wall-clock accounting ---------------------------------------------------

    def enable_wall_timing(self,
                           clock: Optional[Callable[[], float]] = None
                           ) -> None:
        """Start accumulating real seconds of per-shard storage work
        (log append/flush + Waldo drain), the measurement behind the
        sharded ingest benchmark's critical-path model.

        Log work runs inline on the ingest thread, so it is charged
        wall time; drains may run concurrently in the shard pool, so
        each is charged its *own thread's* CPU time
        (``time.thread_time``) -- elapsed time there would bill every
        shard for the GIL holds of all the others and make the
        per-shard numbers meaningless.  An explicit ``clock`` (tests,
        simulated time) is used for both.
        """
        import time
        self._wall_clock = clock or time.perf_counter
        self._drain_clock = clock or time.thread_time
        for vs in self._volumes.values():
            for log in vs.lasagna.shard_logs:
                log.wall_clock = self._wall_clock

    def storage_seconds(self, volume: Optional[str] = None
                        ) -> list[float]:
        """Per-shard storage wall seconds (log work + drain work), one
        entry per shard.  With one worker per shard the tier's elapsed
        storage time is ``max`` of this list; serially it is ``sum`` --
        at ``shards=1`` the two coincide."""
        if volume is not None:
            targets = [self._volumes[volume]]
        else:
            targets = list(self._volumes.values())
        seconds: list[float] = []
        for vs in targets:
            for log, drain in zip(vs.lasagna.shard_logs,
                                  vs.drain_seconds):
                seconds.append(log.wall_seconds + drain)
        return seconds

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> tuple[int, int]:
        """Machine death: every Waldo requeues undrained segments onto
        its shard log, every Lasagna loses its buffered records.
        Returns ``(requeued_segments, lost_records)``."""
        requeued = 0
        for vs in self._volumes.values():
            for waldo in vs.waldos:
                requeued += waldo.crash()
        lost = 0
        for vs in self._volumes.values():
            lost += vs.lasagna.crash()
        return requeued, lost

    def recover(self, consume: bool = False) -> RecoveryReport:
        """Replay every shard log into its shard database (volume
        order, shard order) and merge the reports.  At ``shards=1``
        this is exactly the classic single-volume recovery."""
        combined = RecoveryReport()
        for vs in self._volumes.values():
            for log, waldo in zip(vs.lasagna.shard_logs, vs.waldos):
                report = recovery.recover(
                    vs.lasagna, database=waldo.database,
                    consume=consume, log=log)
                combined.committed_records.extend(
                    report.committed_records)
                combined.orphaned_records.extend(
                    report.orphaned_records)
                combined.inconsistent_data.extend(
                    report.inconsistent_data)
                combined.torn_bytes += report.torn_bytes
        return combined

    def __repr__(self) -> str:
        return (f"<StorageTier {len(self._volumes)} volume(s) x "
                f"{self.shards_per_volume} shard(s)>")
