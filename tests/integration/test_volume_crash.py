"""Crashing one volume's drain leaves the other volume consistent.

Each PASS volume has its own log, Waldo and database, and the tier
drains them in volume order.  ``waldo.drain.segment`` fires before a
Waldo ingests a closed segment, so on a two-volume boot a crash there
dies either before anything was drained (``nth=1``) or *between*
volumes (``nth=2``: the first volume's records are in its database, the
second's still in its closed log segment).  Recovery must replay
exactly the undrained volume(s), end fsck-clean, preserve the WAP
invariant, be idempotent, and restore the fault-free record count --
everything reached a log before the drain began, so nothing may be
lost.
"""

import dataclasses

import pytest

from repro.crashlab import discover, run_crash_scenario
from repro.crashlab.workloads import BOOT
from repro.faults import FaultPlan
from repro.pql.engine import QueryEngine

VOLUMES = ("pass", "pass2")
TWO_VOLUMES = dataclasses.replace(BOOT, pass_volumes=VOLUMES)
COPY_ANCESTRY = ('select A.name from Provenance.file as F, F.input* as A '
                 'where F.name = "/pass2/copy.dat"')


def two_volume_workload(system) -> None:
    """Files on both volumes, one copy across them, one final sync."""
    with system.process(argv=["writer"]) as proc:
        for volume in VOLUMES:
            for index in range(3):
                fd = proc.open(f"/{volume}/src-{index}.dat", "w")
                proc.write(fd, bytes([65 + index]) * 96)
                proc.close(fd)
    with system.process(argv=["copier"]) as proc:
        fd = proc.open("/pass/src-0.dat", "r")
        payload = proc.read(fd)
        proc.close(fd)
        out = proc.open("/pass2/copy.dat", "w")
        proc.write(out, payload)
        proc.close(out)
    system.sync()


def _per_volume(result) -> list[int]:
    return [len(database) for database in result.system.databases()]


@pytest.fixture(scope="module")
def clean():
    """The fault-free run every crashed run must recover to."""
    result = run_crash_scenario(two_volume_workload, plan=None,
                                config=TWO_VOLUMES)
    assert result.fault is None
    assert all(_per_volume(result))
    return result


def test_one_drain_point_per_volume():
    injector = discover(two_volume_workload, config=TWO_VOLUMES)
    assert injector.hits["waldo.drain.segment"] == len(VOLUMES)


@pytest.mark.parametrize("nth", [1, 2])
def test_crash_mid_drain_recovers_both_volumes(clean, nth):
    plan = FaultPlan().add("waldo.drain.segment", "crash", nth=nth)
    result = run_crash_scenario(two_volume_workload, plan,
                                config=TWO_VOLUMES)
    assert getattr(result.fault, "site", None) == "waldo.drain.segment"
    assert result.wap_violations == []
    assert result.fsck_report.clean
    assert result.idempotent
    # Volumes drained before the crash kept their records; recovery
    # replayed only the others.
    drained = nth - 1
    assert result.requeued_segments == len(VOLUMES) - drained
    assert len(result.report.committed_records) == sum(
        _per_volume(clean)[drained:])
    assert _per_volume(result) == _per_volume(clean)
    assert result.db_records == clean.db_records
    # The cross-volume edge survives: one engine over both databases
    # (built directly -- the halted injector refuses tier activity).
    engine = QueryEngine.live(result.system.databases())
    assert "/pass/src-0.dat" in engine.execute(COPY_ANCESTRY)
