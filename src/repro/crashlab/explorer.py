"""crashlab: the crash-point explorer for the WAP invariant.

The paper's strongest durability claim (section 5.6) is write-ahead
provenance: after a crash, data may exist whose provenance is *flagged*
inconsistent, but no unflagged data lacks provenance.  The explorer
turns that claim into an exhaustive test surface:

1. **Discovery** -- run a workload once with a traced (but plan-less)
   injector; every hit of a crashable site is a reachable crash point
   ``(site, hit)``.
2. **Replay** -- for each point (and each action the site honours:
   ``crash`` everywhere, plus ``torn`` at the log append), re-run the
   workload from a fresh boot with a one-rule plan that fires exactly
   there.  Determinism guarantees the point is reached.
3. **Verdict** -- simulate the machine death (Waldo requeues undrained
   segments, the Lasagna buffer is lost), run
   ``recovery.recover(consume=True)`` into Waldo's database, fsck the
   result, and check:

   * **WAP**: every data write that *completed* before the crash (the
     ``lasagna.write.post_data`` trace is the ground truth) is covered
     by a committed MD5 record in the database, or flagged in
     ``RecoveryReport.inconsistent_data``;
   * **idempotence**: a second recovery pass reports clean and inserts
     nothing;
   * **integrity**: fsck over the recovered database is clean (the
     committed prefix of the record stream satisfies every structural
     invariant).

Reports render to byte-identical JSON across runs: pnode numbers are
assigned from a process-global counter (fresh boots shift them), so
the renderer normalizes every pnode to a dense ``n<i>`` id in first
appearance order -- deterministic because the event order is.

Exposed on the command line as ``python -m repro.cli crashtest``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.pnode import ObjectRef
from repro.core.records import Attr
from repro.crashlab.workloads import BOOT, WORKLOADS
from repro.faults import CRASHABLE, FaultError, FaultInjector, FaultPlan
from repro.storage.fsck import FsckReport, fsck
from repro.storage.log import md5_unpack
from repro.storage.recovery import RecoveryReport
from repro.system import System

#: Site -> actions the explorer replays there.  Every crashable site
#: gets a plain crash; the log append additionally gets a mid-sector
#: tear (half the in-flight batch lost).
_ACTIONS_AT = {"log.flush.append": ("crash", "torn")}
_DEFAULT_ACTIONS = ("crash",)

#: Tear fraction used for explorer 'torn' replays.
TORN_PARAM = 0.5


# -- one crash scenario -------------------------------------------------------


@dataclass
class ScenarioResult:
    """Everything one crash-and-recover run produced."""

    fault: Optional[FaultError]
    lost_records: int
    requeued_segments: int
    report: RecoveryReport
    second_report: RecoveryReport
    fsck_report: FsckReport
    #: Completed data writes (pnode, offset, nbytes) that recovery
    #: neither covers with a committed MD5 record nor flags: WAP broken.
    wap_violations: list[tuple[int, int, int]]
    idempotent: bool
    db_records: int
    injector: FaultInjector
    system: System


def run_crash_scenario(workload: Callable[[System], None],
                       plan: Optional[FaultPlan] = None,
                       config=None) -> ScenarioResult:
    """Run ``workload`` under ``plan``, crash the machine (at the plan's
    fault, or after a clean finish), recover, and judge the outcome.

    This is the primitive both the explorer and the hypothesis property
    tests drive: any plan, any workload, same verdict logic.  The whole
    crash/recover path goes through the storage tier, so it exercises
    every PASS volume of the boot (``config`` overrides the default
    one-volume :data:`BOOT`).
    """
    injector = FaultInjector(plan, record_trace=True)
    system = System.boot(config=config or BOOT, faults=injector)
    fault: Optional[FaultError] = None
    try:
        workload(system)
    except FaultError as exc:
        fault = exc
    # The machine is dead either way; only durable state survives.
    requeued, lost = system.tier.crash()
    report = system.tier.recover(consume=True)
    fsck_report = fsck(system.databases())
    db_records = sum(len(db) for db in system.databases())
    second = system.tier.recover(consume=True)
    idempotent = (second.clean
                  and not second.committed_records
                  and second.torn_bytes == 0
                  and sum(len(db) for db in system.databases()) == db_records)
    violations = wap_violations(injector.trace, system.databases(), report)
    return ScenarioResult(
        fault=fault, lost_records=lost, requeued_segments=requeued,
        report=report, second_report=second, fsck_report=fsck_report,
        wap_violations=violations, idempotent=idempotent,
        db_records=db_records, injector=injector, system=system)


def wap_violations(trace, databases, report: RecoveryReport,
                   ) -> list[tuple[int, int, int]]:
    """Completed data writes with neither committed provenance nor an
    inconsistency flag -- each one falsifies the WAP invariant.

    ``databases`` is one database or a list (a multi-volume boot's
    MD5 records span every volume's database)."""
    if not isinstance(databases, (list, tuple)):
        databases = [databases]
    covered: set[tuple[int, int, int]] = set()
    for database in databases:
        for record in database.all_records():
            if record.attr == Attr.MD5 and isinstance(record.value, bytes):
                offset, length, _ = md5_unpack(record.value)
                covered.add((record.subject.pnode, offset, length))
    flagged = {(ref.pnode, offset, length)
               for ref, offset, length in report.inconsistent_data}
    violations: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for site, _hit, payload in trace:
        if site != "lasagna.write.post_data":
            continue
        key = (payload["pnode"], payload["offset"], payload["nbytes"])
        if key in seen:
            continue
        seen.add(key)
        if key not in covered and key not in flagged:
            violations.append(key)
    return violations


# -- exploration --------------------------------------------------------------


@dataclass
class CrashPointResult:
    """Verdict for one (workload, site, hit, action) crash point."""

    workload: str
    site: str
    hit: int
    action: str
    fired: bool
    lost_records: int
    torn_bytes: int
    committed: int
    orphaned: int
    inconsistent: int
    wap_violations: list[tuple[int, int, int]]
    fsck_findings: int
    idempotent: bool
    db_records: int


@dataclass
class ExplorerReport:
    """All crash points explored across the requested workloads."""

    seed: int
    workloads: list[str]
    site_hits: dict[str, dict[str, int]] = field(default_factory=dict)
    points: list[CrashPointResult] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        return len(self.points)

    @property
    def wap_violation_count(self) -> int:
        return sum(len(point.wap_violations) for point in self.points)

    @property
    def non_idempotent(self) -> int:
        return sum(1 for point in self.points if not point.idempotent)

    @property
    def unfired(self) -> int:
        return sum(1 for point in self.points if not point.fired)

    @property
    def fsck_dirty(self) -> int:
        return sum(1 for point in self.points if point.fsck_findings)

    @property
    def ok(self) -> bool:
        return (not self.wap_violation_count and not self.non_idempotent
                and not self.unfired and not self.fsck_dirty)

    def to_dict(self) -> dict:
        """JSON-ready, byte-deterministic across runs (normalized
        pnodes, no wall-clock anywhere)."""
        namer = _PnodeNamer()
        return {
            "schema": "repro-crashtest/1",
            "seed": self.seed,
            "workloads": list(self.workloads),
            "site_hits": {name: dict(sorted(hits.items()))
                          for name, hits in sorted(self.site_hits.items())},
            "points": [
                {
                    "workload": point.workload,
                    "site": point.site,
                    "hit": point.hit,
                    "action": point.action,
                    "fired": point.fired,
                    "lost_records": point.lost_records,
                    "torn_bytes": point.torn_bytes,
                    "committed": point.committed,
                    "orphaned": point.orphaned,
                    "inconsistent": point.inconsistent,
                    "wap_violations": [
                        {"pnode": namer.name(pnode), "offset": offset,
                         "nbytes": nbytes}
                        for pnode, offset, nbytes in point.wap_violations],
                    "fsck_findings": point.fsck_findings,
                    "idempotent": point.idempotent,
                    "db_records": point.db_records,
                }
                for point in self.points
            ],
            "totals": {
                "crash_points": self.crash_points,
                "wap_violations": self.wap_violation_count,
                "non_idempotent": self.non_idempotent,
                "unfired": self.unfired,
                "fsck_dirty": self.fsck_dirty,
                "ok": self.ok,
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def discover(workload: Callable[[System], None],
             config=None) -> FaultInjector:
    """Trace run: which sites does this workload reach, how often?"""
    injector = FaultInjector(record_trace=True)
    system = System.boot(config=config or BOOT, faults=injector)
    workload(system)
    return injector


def explore(workloads: Optional[list[str]] = None,
            seed: int = 0, config=None) -> ExplorerReport:
    """Enumerate every reachable crash point of each workload and
    replay the workload once per point (same seed).  ``config``
    overrides the boot (:data:`BOOT` by default), e.g. to explore the
    same workloads over several PASS volumes."""
    names = list(workloads) if workloads else sorted(WORKLOADS)
    report = ExplorerReport(seed=seed, workloads=names)
    for name in names:
        workload = WORKLOADS[name]
        trace_injector = discover(workload, config=config)
        report.site_hits[name] = {
            site: hits for site, hits in trace_injector.hits.items()
            if site in CRASHABLE}
        for site, hit, _payload in trace_injector.trace:
            if site not in CRASHABLE:
                continue
            for action in _ACTIONS_AT.get(site, _DEFAULT_ACTIONS):
                plan = FaultPlan(seed=seed).add(
                    site, action, nth=hit, param=TORN_PARAM)
                result = run_crash_scenario(workload, plan, config=config)
                report.points.append(CrashPointResult(
                    workload=name, site=site, hit=hit, action=action,
                    fired=result.injector.faults_fired > 0,
                    lost_records=result.lost_records,
                    torn_bytes=result.report.torn_bytes,
                    committed=len(result.report.committed_records),
                    orphaned=len(result.report.orphaned_records),
                    inconsistent=len(result.report.inconsistent_data),
                    wap_violations=result.wap_violations,
                    fsck_findings=len(result.fsck_report.findings),
                    idempotent=result.idempotent,
                    db_records=result.db_records))
    return report


# -- determinism fingerprinting ----------------------------------------------


class _PnodeNamer:
    """Dense, first-appearance pnode naming for byte-stable JSON.

    Raw pnode numbers embed a process-global volume-id counter, so two
    otherwise identical runs disagree on them; the *sequence* of
    appearances is deterministic, which makes this mapping stable.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {}

    def name(self, pnode: int) -> str:
        if pnode not in self._names:
            self._names[pnode] = f"n{len(self._names)}"
        return self._names[pnode]


def _render_value(value, namer: _PnodeNamer):
    if isinstance(value, ObjectRef):
        return ["ref", namer.name(value.pnode), value.version]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    return [type(value).__name__, str(value)]


def scenario_fingerprint(result: ScenarioResult) -> dict:
    """A normalized rendering of one scenario's RecoveryReport + fsck
    output.  Two runs of the same plan + seed must produce identical
    JSON for this dict (the determinism regression contract)."""
    namer = _PnodeNamer()

    def render_record(record):
        return [namer.name(record.subject.pnode), record.subject.version,
                str(record.attr), _render_value(record.value, namer)]

    return {
        "fault": (type(result.fault).__name__ if result.fault else None),
        "fault_site": getattr(result.fault, "site", None),
        "lost_records": result.lost_records,
        "requeued_segments": result.requeued_segments,
        "recovery": {
            "committed": [render_record(record)
                          for record in result.report.committed_records],
            "orphaned": [render_record(record)
                         for record in result.report.orphaned_records],
            "inconsistent": [
                [namer.name(ref.pnode), ref.version, offset, nbytes]
                for ref, offset, nbytes in result.report.inconsistent_data],
            "torn_bytes": result.report.torn_bytes,
            "clean": result.report.clean,
        },
        "fsck": {
            "clean": result.fsck_report.clean,
            "objects_checked": result.fsck_report.objects_checked,
            "records_checked": result.fsck_report.records_checked,
            "findings": [
                [finding.check, namer.name(finding.subject.pnode),
                 finding.subject.version, finding.detail]
                for finding in result.fsck_report.findings],
        },
        "wap_violations": [
            [namer.name(pnode), offset, nbytes]
            for pnode, offset, nbytes in result.wap_violations],
        "idempotent": result.idempotent,
        "db_records": result.db_records,
    }
