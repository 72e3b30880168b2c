"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.core.errors import NetworkPartition
from repro.faults import (
    CRASHABLE,
    SITES,
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultRule,
    IOFault,
    site_names,
    spec,
)
from repro.kernel.clock import SimClock
from repro.nfs.network import Network
from repro.system import System


class TestFaultRule:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultRule("disk.write", "crash")
        with pytest.raises(ValueError):
            FaultRule("disk.write", "crash", nth=1, probability=0.5)

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            FaultRule("disk.write", "explode", nth=1)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            FaultRule("disk.write", "crash", nth=0)
        with pytest.raises(ValueError):
            FaultRule("disk.write", "crash", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule("disk.write", "crash", nth=1, max_fires=0)

    def test_glob_site_matching(self):
        rule = FaultRule("log.flush.*", "crash", nth=1)
        assert rule.matches("log.flush.pre")
        assert rule.matches("log.flush.append")
        assert not rule.matches("disk.write")


class TestFaultInjector:
    def test_nth_rule_fires_exactly_once(self):
        plan = FaultPlan().add("site.a", "io_error", nth=3)
        injector = FaultInjector(plan)
        injector.fire("site.a")
        injector.fire("site.a")
        with pytest.raises(IOFault) as caught:
            injector.fire("site.a")
        assert caught.value.hit == 3
        # The 4th hit does not re-fire.
        injector.fire("site.a")
        assert injector.faults_fired == 1

    def test_hits_counted_per_site(self):
        injector = FaultInjector()
        injector.fire("site.a")
        injector.fire("site.b")
        injector.fire("site.a")
        assert injector.hits == {"site.a": 2, "site.b": 1}

    def test_trace_records_payloads(self):
        injector = FaultInjector(record_trace=True)
        injector.fire("site.a", nbytes=7)
        assert injector.trace == [("site.a", 1, {"nbytes": 7})]

    def test_probability_rules_deterministic_for_a_seed(self):
        def fired_pattern(seed):
            plan = FaultPlan(seed=seed).add(
                "site.a", "io_error", probability=0.3, max_fires=100)
            injector = FaultInjector(plan)
            pattern = []
            for _ in range(50):
                try:
                    injector.fire("site.a")
                    pattern.append(0)
                except IOFault:
                    pattern.append(1)
            return pattern

        assert fired_pattern(7) == fired_pattern(7)
        assert fired_pattern(7) != fired_pattern(8)

    def test_crash_halts_the_machine(self):
        plan = FaultPlan().add("site.a", "crash", nth=1)
        injector = FaultInjector(plan)
        with pytest.raises(CrashFault):
            injector.fire("site.a")
        assert injector.halted
        # Dead machines stay dead: any site now raises.
        with pytest.raises(CrashFault):
            injector.fire("site.unrelated")

    def test_io_error_does_not_halt(self):
        plan = FaultPlan().add("site.a", "io_error", nth=1)
        injector = FaultInjector(plan)
        with pytest.raises(IOFault):
            injector.fire("site.a")
        assert not injector.halted
        injector.fire("site.a")         # machine survives

    def test_plan_reset_rewinds_everything(self):
        plan = FaultPlan(seed=3).add("site.a", "crash", nth=2)
        injector = FaultInjector(plan)
        injector.fire("site.a")
        with pytest.raises(CrashFault):
            injector.fire("site.a")
        plan.reset()
        fresh = FaultInjector(plan)
        fresh.fire("site.a")
        with pytest.raises(CrashFault):
            fresh.fire("site.a")


class TestSiteCatalogue:
    def test_names_unique(self):
        names = site_names()
        assert len(names) == len(set(names))

    def test_crashable_is_a_subset(self):
        assert set(CRASHABLE) <= set(site_names())

    def test_spec_lookup(self):
        assert spec("net.call").layer == "nfs"
        with pytest.raises(KeyError):
            spec("no.such.site")

    def test_threaded_sites_match_catalogue(self):
        """Every site fired by a traced boot+workload appears in the
        catalogue (no undocumented sites in the tree)."""
        injector = FaultInjector(record_trace=True)
        system = System.boot(faults=injector)
        with system.process(argv=["w"]) as proc:
            fd = proc.open("/pass/f", "w")
            proc.write(fd, b"x" * 64)
            proc.close(fd)
            fd = proc.open("/pass/f", "r")
            proc.read(fd)
            proc.close(fd)
        system.sync()
        assert set(injector.hits) <= set(site_names())


class TestArmedSystem:
    def test_disk_io_error_surfaces(self):
        plan = FaultPlan().add("disk.write", "io_error", nth=1)
        system = System.boot(faults=FaultInjector(plan))
        with pytest.raises(IOFault):
            with system.process(argv=["w"]) as proc:
                fd = proc.open("/pass/f", "w")
                proc.write(fd, b"x" * 64)
                proc.close(fd)

    def test_torn_log_append_orphans_the_txn(self):
        from repro.storage.recovery import recover
        plan = FaultPlan().add("log.flush.append", "torn", nth=1,
                               param=0.5)
        injector = FaultInjector(plan)
        system = System.boot(faults=injector)
        with pytest.raises(CrashFault) as caught:
            with system.process(argv=["w"]) as proc:
                fd = proc.open("/pass/f", "w")
                proc.write(fd, b"x" * 64)
                proc.close(fd)
        assert caught.value.torn_bytes > 0
        lasagna = system.kernel.volume("pass").lasagna
        lasagna.crash()
        report = recover(lasagna)
        # The torn transaction never committed: no committed MD5
        # records, some tail bytes undecodable or orphaned.
        assert report.torn_bytes > 0 or report.orphaned_records

    def test_fired_faults_reach_obs_registry(self):
        plan = FaultPlan().add("log.flush.pre", "io_error", nth=1)
        injector = FaultInjector(plan)
        system = System.boot(faults=injector)
        with pytest.raises(IOFault):
            with system.process(argv=["w"]) as proc:
                fd = proc.open("/pass/f", "w")
                proc.write(fd, b"x")
                proc.close(fd)
        counters = system.stats()["faults"]["counters"]
        assert counters["faults_fired"] == 1
        assert counters["fired_io_error"] == 1
        assert counters["sites_hit"] >= 1

    def test_disarmed_system_has_no_faults_layer_activity(self):
        system = System.boot()
        assert "faults" not in system.stats()


class TestNetworkFaults:
    def _network(self, plan):
        return Network(SimClock(), faults=FaultInjector(plan))

    def test_drop_fails_one_call_only(self):
        net = self._network(FaultPlan().add("net.call", "drop", nth=2))
        net.call(10, 10)
        with pytest.raises(NetworkPartition):
            net.call(10, 10)
        net.call(10, 10)                # the wire is fine again
        assert net.failed_calls == 1

    def test_delay_charges_extra_latency(self):
        plan = FaultPlan().add("net.call", "delay", nth=1, param=0.25)
        net = self._network(plan)
        before = net.clock.now
        net.call(10, 10)
        assert net.clock.now - before >= 0.25

    def test_duplicate_charges_the_wire_twice(self):
        plan = FaultPlan().add("net.call", "duplicate", nth=1)
        net = self._network(plan)
        net.call(100, 10)
        assert net.calls == 2
        assert net.bytes_sent == 200

    def test_partition_window_fails_n_then_heals(self):
        plan = FaultPlan().add("net.call", "partition", nth=2, param=2)
        net = self._network(plan)
        net.call()
        for _ in range(3):              # the partition call + window of 2
            with pytest.raises(NetworkPartition):
                net.call()
        net.call()                      # healed
        assert net.failed_calls == 3


class TestWaldoCrashRequeue:
    def test_mid_drain_crash_loses_nothing(self):
        from repro.core.pnode import ObjectRef
        from repro.core.records import Attr, ProvenanceRecord
        from repro.kernel.clock import SimClock
        from repro.kernel.params import LogParams
        from repro.storage.log import ProvenanceLog
        from repro.storage.waldo import Waldo

        plan = FaultPlan().add("waldo.drain.segment", "crash", nth=2)
        injector = FaultInjector(plan)
        log = ProvenanceLog(SimClock(), LogParams(max_size=1 << 30))
        waldo = Waldo(log, faults=injector)
        for segment in range(3):
            for index in range(4):
                log.append(ProvenanceRecord(
                    ObjectRef(segment * 10 + index, 0), Attr.NAME,
                    f"seg{segment}-{index}"))
            log.flush()
            log.rotate()
        with pytest.raises(CrashFault):
            waldo.drain()
        # Segment 0 was ingested; 1 and 2 never left the log.
        assert len(waldo.database) == 4
        assert [seg.index for seg in log.closed_segments] == [1, 2]
        # A fresh (restarted) Waldo on the same log drains them with a
        # plain drain().
        recovered = Waldo(log, database=waldo.database)
        assert recovered.drain() == 8
        assert len(waldo.database) == 12
        assert not log.closed_segments
