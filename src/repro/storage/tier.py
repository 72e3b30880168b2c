"""The storage tier: every PASS volume's WAP pipeline, one facade.

The paper's Figure 2 and section 5.6 give each PASS volume one WAP log
(inside its Lasagna), one Waldo draining it and one database.
:class:`StorageTier` is the one construction site for that pipeline and
the place several volumes meet:

* :meth:`attach` builds a volume's Lasagna, Waldo and
  ProvenanceDatabase;
* :meth:`sync` / :meth:`drain` run every volume's pipeline in volume
  order on the calling thread;
* queries federate at the query layer: :meth:`federated_sources` hands
  every volume's database to ``QueryEngine.live``, whose OEM graph is
  arrival-order-insensitive -- the merged live graph answers
  cross-volume joins exactly as one database holding everything would.

A closed log segment lives in one place, its log's ``closed_segments``,
until Waldo has ingested it; after that the database is all that
remains of it (section 5.6).

``System.boot``, crashlab, the benchmarks, and the CLI all construct
storage through this facade.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import NotPassVolume
from repro.obs import NULL_OBS
from repro.storage import recovery
from repro.storage.database import ProvenanceDatabase
from repro.storage.lasagna import Lasagna
from repro.storage.recovery import RecoveryReport
from repro.storage.waldo import Waldo


class StorageTier:
    """Facade over every PASS volume's storage pipeline."""

    def __init__(self, obs=NULL_OBS, faults=None):
        self.obs = obs
        self._faults = faults
        #: Volume name -> its pipeline: the Lasagna owns the log, the
        #: Waldo draining it owns the database.
        self._volumes: dict[str, tuple[Lasagna, Waldo]] = {}
        self.drains = 0
        self.federations = 0

    # -- construction -----------------------------------------------------------

    def attach(self, volume, params=None) -> None:
        """Build one PASS volume's pipeline (Lasagna with its log, one
        Waldo + database).  The one construction site ``System.boot``
        uses for the whole storage layer."""
        lasagna = Lasagna(volume, params, obs=self.obs,
                          faults=self._faults)
        waldo = Waldo(lasagna.log, name=volume.name, obs=self.obs,
                      faults=self._faults)
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

    def _obs_counters(self) -> dict:
        return {
            "volumes": len(self._volumes),
            "drains": self.drains,
            "federations": self.federations,
        }

    # -- crash / recovery --------------------------------------------------------

    def crash(self) -> tuple[int, int]:
        """Machine death: every Lasagna loses its buffered records;
        closed segments Waldo had not drained stay on their logs for
        recovery.  Returns ``(requeued_segments, lost_records)``, the
        first counting those undrained segments."""
        requeued = sum(len(lasagna.log.closed_segments)
                       for lasagna, _ in self._volumes.values())
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
