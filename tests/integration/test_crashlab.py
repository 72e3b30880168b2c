"""Crash-point explorer acceptance + determinism regression tests.

These are the issue's headline checks: every reachable crash point in
the standard workloads recovers with zero WAP violations, and the whole
harness -- explorer report and per-scenario recovery fingerprint -- is
byte-deterministic for a fixed plan + seed.
"""

import json

import pytest

from repro.crashlab import (
    WORKLOADS,
    explore,
    run_crash_scenario,
    scenario_fingerprint,
)
from repro.faults import FaultPlan
from repro import cli


class TestExplorer:
    @pytest.fixture(scope="class")
    def report(self):
        return explore(seed=0)

    def test_covers_at_least_100_crash_points(self, report):
        assert report.crash_points >= 100
        assert set(report.workloads) == set(WORKLOADS)

    def test_zero_wap_violations(self, report):
        assert report.wap_violation_count == 0

    def test_every_point_fired_and_recovered_idempotently(self, report):
        assert report.non_idempotent == 0
        assert report.unfired == 0
        assert report.fsck_dirty == 0
        assert report.ok

    def test_totals_match_point_list(self, report):
        payload = report.to_dict()
        assert payload["schema"] == "repro-crashtest/1"
        assert payload["totals"]["crash_points"] == len(payload["points"])
        assert payload["totals"]["ok"] is True


class TestDeterminism:
    def test_explorer_report_is_byte_identical(self):
        """Satellite 4: identical plans + seed => byte-identical output."""
        first = explore(workloads=["quickstart"], seed=3).render_json()
        second = explore(workloads=["quickstart"], seed=3).render_json()
        assert first == second
        json.loads(first)               # and it is valid JSON

    def test_scenario_fingerprint_is_byte_identical(self):
        def fingerprint():
            plan = FaultPlan(seed=5).add("log.flush.append", "torn",
                                         nth=2, param=0.5)
            result = run_crash_scenario(WORKLOADS["churn"], plan)
            return json.dumps(scenario_fingerprint(result), sort_keys=True)

        assert fingerprint() == fingerprint()

    def test_seed_changes_probability_outcomes_not_structure(self):
        reports = [explore(workloads=["quickstart"], seed=seed)
                   for seed in (0, 1)]
        # nth-triggered exploration is seed-independent: same points.
        assert (sorted((p.site, p.hit, p.action) for p in reports[0].points)
                == sorted((p.site, p.hit, p.action) for p in reports[1].points))


class TestLiveEngineAcrossCrash:
    """The live OEM graph stays equivalent to a batch rebuild even when
    the records arrive through crashlab's crash/recover replay path:
    recovery inserts into the same database, so the push feed carries
    the replayed records into the already-attached engine."""

    @pytest.mark.parametrize("site,nth", [
        ("waldo.drain.segment", 1),
        ("log.flush.append", 2),
    ])
    def test_live_graph_equals_batch_after_recovery(self, site, nth):
        from repro.crashlab.workloads import BOOT, churn
        from repro.faults import FaultError, FaultInjector
        from repro.pql.oem import OEMGraph
        from repro.storage.recovery import recover
        from repro.system import System
        from tests.conftest import graph_fingerprint

        plan = FaultPlan().add(site, "crash", nth=nth)
        system = System.boot(config=BOOT, faults=FaultInjector(plan))
        # Attach the live engine *before* the crash, like a long-lived
        # query client would.
        engine = system.query_engine()
        with pytest.raises(FaultError):
            churn(system)
        waldo = system.tier.waldo("pass")
        lasagna = system.kernel.volume("pass").lasagna
        lasagna.crash()
        recover(lasagna, database=waldo.database, consume=True)
        assert system.fsck().clean
        # The surviving engine saw every recovered record through the
        # push feed; a from-scratch build agrees exactly.
        batch = OEMGraph.build(waldo.database.all_records())
        assert graph_fingerprint(engine.graph) == graph_fingerprint(batch)
        assert system.query_engine() is engine


class TestGroupCommitCrashCoverage:
    """Satellite: with group commit enabled (the default boot), the
    explorer reaches crash points at ``log.flush.pre`` and the Waldo
    drain, and every replay still recovers with zero WAP violations."""

    def test_default_boot_has_batching_and_group_commit(self):
        from repro.crashlab.workloads import BOOT
        from repro.kernel.params import SimParams
        log = (BOOT.params or SimParams()).log
        assert log.group_commit_records > 0 and log.group_commit_bytes > 0

    def test_churn_actually_group_commits(self):
        """The churn workload's disclosure burst crosses the threshold,
        so the crash points below really sit inside group commits."""
        from repro.crashlab.workloads import BOOT, churn
        from repro.system import System

        system = System.boot(config=BOOT)
        churn(system)
        log = system.kernel.volume("pass").lasagna.log
        assert log.batch_flushes > 0
        assert log.batch_records > 0

    def test_flush_and_drain_sites_covered_with_zero_violations(self):
        report = explore(workloads=["churn"], seed=0)
        hits = report.site_hits["churn"]
        assert hits.get("log.flush.pre", 0) > 0
        assert hits.get("waldo.drain.segment", 0) > 0
        assert report.wap_violation_count == 0
        assert report.non_idempotent == 0
        assert report.ok


class TestCrashtestCli:
    def test_json_mode_emits_the_report(self, capsys):
        code = cli.main(["crashtest", "--workload", "quickstart"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["wap_violations"] == 0
        assert payload["totals"]["crash_points"] > 0

    def test_unknown_workload_is_an_error(self, capsys):
        assert cli.main(["crashtest", "--workload", "nope"]) == 2
