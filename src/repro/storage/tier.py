"""The storage tier: every PASS volume's WAP pipeline, one facade.

The paper's Figure 2 and section 5.6 give each PASS volume one WAP log
(inside its Lasagna), one Waldo draining it and one database.
:class:`StorageTier` is the one construction site for that pipeline and
the place several volumes meet:

* :meth:`attach` builds a volume's Lasagna, Waldo, ProvenanceDatabase
  and drained-segment archive;
* :meth:`sync` / :meth:`drain` run every volume's pipeline in volume
  order on the calling thread;
* queries federate at the query layer: :meth:`federated_sources` hands
  every volume's database to ``QueryEngine.live``, whose OEM graph is
  arrival-order-insensitive -- the merged live graph answers
  cross-volume joins exactly as one database holding everything would;
* drained segments are archived per volume and compacted under a
  :class:`CompactionPolicy`, so the store survives months of churn with
  bounded memory.

``System.boot``, crashlab, the benchmarks, and the CLI all construct
storage through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import NotPassVolume
from repro.obs import NULL_OBS
from repro.storage import recovery
from repro.storage.database import ProvenanceDatabase
from repro.storage.lasagna import Lasagna
from repro.storage.log import LogSegment
from repro.storage.recovery import RecoveryReport
from repro.storage.waldo import Waldo


@dataclass(frozen=True)
class CompactionPolicy:
    """Bounds on each volume's drained-segment archive.

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
    """Drained log segments retained for one volume, bounded by policy.

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


class StorageTier:
    """Facade over every PASS volume's storage pipeline."""

    def __init__(self, compaction: Optional[CompactionPolicy] = None,
                 obs=NULL_OBS, faults=None):
        self.compaction = compaction or CompactionPolicy()
        self.obs = obs
        self._faults = faults
        #: Volume name -> its pipeline: the Lasagna owns the log, the
        #: Waldo draining it owns the database and the archive.
        self._volumes: dict[str, tuple[Lasagna, Waldo]] = {}
        self.drains = 0
        self.federations = 0

    # -- construction -----------------------------------------------------------

    def attach(self, volume, params=None) -> None:
        """Build one PASS volume's pipeline (Lasagna with its log, one
        Waldo + database + archive).  The one construction site
        ``System.boot`` uses for the whole storage layer."""
        lasagna = Lasagna(volume, params, obs=self.obs,
                          faults=self._faults)
        waldo = Waldo(lasagna.log, name=volume.name, obs=self.obs,
                      faults=self._faults,
                      archive=SegmentArchive(self.compaction))
        if not self._volumes:
            self.obs.add_collector("tier", self._obs_counters)
        self._volumes[volume.name] = (lasagna, waldo)

    # -- accessors --------------------------------------------------------------

    def volumes(self) -> list[str]:
        return list(self._volumes)

    def __bool__(self) -> bool:
        return bool(self._volumes)

    def _pipeline(self, volume: Optional[str]) -> tuple[Lasagna, Waldo]:
        """The one lookup behind every accessor (None = the first PASS
        volume)."""
        if volume is None:
            if not self._volumes:
                raise NotPassVolume("no PASS volume attached")
            volume = next(iter(self._volumes))
        try:
            return self._volumes[volume]
        except KeyError:
            raise NotPassVolume(
                f"volume {volume!r} has no provenance storage attached"
            ) from None

    def _waldos(self) -> list[Waldo]:
        return [waldo for _, waldo in self._volumes.values()]

    def lasagna(self, volume: str) -> Lasagna:
        return self._pipeline(volume)[0]

    def waldo(self, volume: str) -> Waldo:
        return self._pipeline(volume)[1]

    def archive(self, volume: str) -> SegmentArchive:
        return self._pipeline(volume)[1].archive

    def database(self, volume: Optional[str] = None) -> ProvenanceDatabase:
        """One volume's database (the first PASS volume by default)."""
        return self._pipeline(volume)[1].database

    def databases(self) -> list[ProvenanceDatabase]:
        """Every volume's database, volume order."""
        return [waldo.database for waldo in self._waldos()]

    # -- ingest path ------------------------------------------------------------

    def sync(self) -> int:
        """Flush + rotate every volume's log, then drain every Waldo;
        returns records inserted (the ``System.sync`` work)."""
        for lasagna, _ in self._volumes.values():
            lasagna.sync()
        return self.drain()

    def drain(self) -> int:
        """Drain every volume's Waldo, volume order; returns records
        inserted."""
        self.drains += 1
        return sum(waldo.drain() for waldo in self._waldos())

    # -- query federation --------------------------------------------------------

    def federated_sources(self) -> list[ProvenanceDatabase]:
        """Every volume's database: the sources of the merge-at-query
        federation.  ``QueryEngine.live`` over this list builds one
        merged OEM graph (kept current by each database's push feed),
        so cross-volume joins resolve exactly as they would in one
        database -- answers merge at the graph, never per volume."""
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
        """Tier-wide (or one volume's) database/index byte sizes:
        totals sum over the volumes, with each volume's own
        ``database.sizes()`` under ``"per_volume"`` (keyed by name)."""
        names = list(self._volumes) if volume is None else [volume]
        per_volume = {name: self.database(name).sizes() for name in names}
        totals: dict = {
            key: sum(sizes[key] for sizes in per_volume.values())
            for key in ("database", "indexes", "total")}
        totals["per_volume"] = per_volume
        return totals

    def compact(self) -> dict:
        """Force-compact every volume's archive; returns rollup stats."""
        reclaimed = 0
        segments = 0
        for waldo in self._waldos():
            before = waldo.archive.segments_compacted
            reclaimed += waldo.archive.compact(force=True)
            segments += waldo.archive.segments_compacted - before
        return {"segments_compacted": segments,
                "bytes_reclaimed": reclaimed}

    def _obs_counters(self) -> dict:
        archives = [waldo.archive for waldo in self._waldos()]
        return {
            "volumes": len(self._volumes),
            "drains": self.drains,
            "federations": self.federations,
            "segments_archived": sum(
                archive.segments_archived for archive in archives),
            "segments_compacted": sum(
                archive.segments_compacted for archive in archives),
            "segments_retained": sum(
                len(archive.segments) for archive in archives),
            "archive_bytes_reclaimed": sum(
                archive.bytes_reclaimed for archive in archives),
        }

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> tuple[int, int]:
        """Machine death: every Waldo requeues undrained segments onto
        its log, every Lasagna loses its buffered records.
        Returns ``(requeued_segments, lost_records)``."""
        requeued = sum(waldo.crash() for waldo in self._waldos())
        lost = sum(lasagna.crash()
                   for lasagna, _ in self._volumes.values())
        return requeued, lost

    def recover(self, consume: bool = False) -> RecoveryReport:
        """Replay every volume's log into its database (volume order)
        and merge the reports."""
        combined = RecoveryReport()
        for lasagna, waldo in self._volumes.values():
            report = recovery.recover(
                lasagna, database=waldo.database, consume=consume)
            combined.committed_records.extend(report.committed_records)
            combined.orphaned_records.extend(report.orphaned_records)
            combined.inconsistent_data.extend(report.inconsistent_data)
            combined.torn_bytes += report.torn_bytes
        return combined

    def __repr__(self) -> str:
        return f"<StorageTier {len(self._volumes)} volume(s)>"
