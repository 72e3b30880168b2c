"""The injection-site catalogue.

Single source of truth for every site name threaded through the stack:
the explorer enumerates crash points from it, docs/TESTING.md renders
it, and tests assert the threaded sites and this table stay in sync.

Each entry: layer hosting the site, the actions it honours, and the
semantics of firing there.  ``crash`` and ``io_error`` work at every
site (the injector raises them centrally); the table lists the
*additional* site-interpreted actions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SiteSpec:
    """One catalogued injection site."""

    name: str
    layer: str
    extra_actions: tuple[str, ...]
    semantics: str


SITES: tuple[SiteSpec, ...] = (
    SiteSpec("disk.read", "kernel",
             (),
             "before a foreground block read is charged"),
    SiteSpec("disk.write", "kernel",
             (),
             "before a foreground block write is charged (the file data "
             "itself is already in the page/file state: crashing here "
             "models dying just after data reached the platter)"),
    SiteSpec("disk.clustered_write", "kernel",
             (),
             "before a clustered write-back append (journal commits and "
             "provenance-log appends) is charged"),
    SiteSpec("log.flush.pre", "storage",
             (),
             "a WAP flush is about to frame the buffered records; "
             "crashing here loses the whole buffer (never durable)"),
    SiteSpec("log.flush.append", "storage",
             ("torn",),
             "the framed batch reached the disk queue but not yet the "
             "segment; 'torn' appends the batch then tears param*nbytes "
             "off the tail (a mid-sector crash), orphaning the "
             "transaction"),
    SiteSpec("log.flush.post", "storage",
             (),
             "the flush committed (ENDTXN durable); crashing here loses "
             "nothing that was flushed"),
    SiteSpec("lasagna.write.pre_data", "storage",
             (),
             "provenance (incl. the MD5 record) is durable, the data "
             "write has not happened -- the canonical WAP window; "
             "recovery must flag this write as inconsistent"),
    SiteSpec("lasagna.write.post_data", "storage",
             (),
             "the data write completed; its trace payload "
             "(pnode/offset/nbytes) is the ground truth the WAP checker "
             "compares against the recovered database"),
    SiteSpec("waldo.drain.segment", "storage",
             (),
             "Waldo is about to ingest one closed segment; crashing "
             "here leaves it, and every later one, on the log's "
             "closed_segments for recovery"),
    SiteSpec("federate.merge", "storage",
             (),
             "the tier is assembling the federated source list (every "
             "volume's database) for a live query engine; an io_error "
             "here models a volume refusing queries"),
    SiteSpec("distributor.flush", "core",
             (),
             "cached transient-object records are about to materialize "
             "onto a volume log"),
    SiteSpec("net.call", "nfs",
             ("drop", "delay", "duplicate", "partition"),
             "one RPC round trip: 'drop' fails this call only, 'delay' "
             "adds param seconds of latency, 'duplicate' charges the "
             "wire twice (at-least-once retry), 'partition' fails this "
             "and the next param calls, then heals"),
)

#: Sites where replaying a workload with an injected crash is
#: meaningful for the WAP invariant (the explorer's enumeration set).
#: ``disk.read`` changes no durable state, ``net.call`` belongs to the
#: NFS pair harness (tests/integration/test_nfs_faults.py), and
#: ``federate.merge`` is a query-path site (no durable state moves), so
#: none of those is explored by default.
CRASHABLE = tuple(
    spec.name for spec in SITES
    if spec.name not in ("disk.read", "net.call", "federate.merge"))


def site_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in SITES)


def spec(name: str) -> SiteSpec:
    for candidate in SITES:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown injection site: {name!r}")
