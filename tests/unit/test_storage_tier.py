"""StorageTier facade unit tests: layout, accessors, rollups, one queue.

The facade contract: one Lasagna (one log), one Waldo and one database
per PASS volume; ``sizes()`` sums over the volumes; every accessor
raises ``NotPassVolume`` for a volume without provenance storage; a
closed segment sits on its log until Waldo drains it and nowhere
after; crash and recovery walk every volume.
"""

import pytest

from repro.core.errors import NotPassVolume
from repro.storage.recovery import recover
from repro.system import System

VOLUMES = ("pass", "pass2")


def _write_files(system, count=6, payload=b"x" * 64, sync=True):
    """``count`` files on every PASS volume of ``system``."""
    with system.process(argv=["writer"]) as proc:
        for volume in system.tier.volumes():
            for index in range(count):
                fd = proc.open(f"/{volume}/f{index}.dat", "w")
                proc.write(fd, payload)
                proc.close(fd)
    if sync:
        system.sync()


class TestSingleShardIdentity:
    def test_labels_and_layout_match_the_classic_pipeline(self):
        system = System.boot()
        tier = system.tier
        assert tier.volumes() == ["pass"]
        assert tier.waldo("pass").name == "pass"
        assert tier.waldo("pass").log is tier.lasagna("pass").log
        assert system.databases() == [tier.database("pass")]
        assert system.database() is tier.waldo("pass").database


class TestAccessorErrors:
    """Every accessor goes through one lookup, which names the volume
    (the parent leaked ``StopIteration`` / ``KeyError``)."""

    def test_baseline_boot_has_no_default_database(self, baseline):
        with pytest.raises(NotPassVolume, match="no PASS volume attached"):
            baseline.database()
        assert baseline.databases() == []

    @pytest.mark.parametrize("accessor", [
        "database", "lasagna", "waldo", "sizes"])
    @pytest.mark.parametrize("volume", ["scratch", "nope"])
    def test_plain_and_unknown_volumes_are_named(self, system, accessor,
                                                 volume):
        with pytest.raises(NotPassVolume, match=repr(volume)):
            getattr(system.tier, accessor)(volume)

    def test_error_survives_a_generator_program(self, baseline):
        """Interleaved programs are generators, where a leaked
        ``StopIteration`` resurfaces as ``RuntimeError: generator
        raised StopIteration``; the program must see the real error."""
        def program(sys_):
            yield
            baseline.database()

        baseline.kernel.start("/bin/reader", program=program)
        with pytest.raises(NotPassVolume):
            baseline.kernel.schedule()


class TestSizesRollup:
    def test_totals_are_the_sum_of_every_shard(self, two_volume_system):
        system = two_volume_system
        _write_files(system, count=10)
        rollup = system.tier.sizes()
        assert list(rollup["per_volume"]) == list(VOLUMES)
        for name in VOLUMES:
            assert rollup["per_volume"][name] == (
                system.database(name).sizes())
            assert rollup["per_volume"][name]["total"] > 0
        for key in ("database", "indexes", "total"):
            assert rollup[key] == sum(
                sizes[key] for sizes in rollup["per_volume"].values())

    def test_system_sizes_matches_tier_rollup(self, two_volume_system):
        _write_files(two_volume_system)
        assert two_volume_system.sizes() == two_volume_system.tier.sizes()

    def test_single_shard_rollup_matches_waldo_sizes(self,
                                                     two_volume_system):
        system = two_volume_system
        _write_files(system)
        for name in VOLUMES:
            waldo_sizes = system.tier.waldo(name).database.sizes()
            rollup = system.tier.sizes(name)
            assert list(rollup["per_volume"]) == [name]
            for key in ("database", "indexes", "total"):
                assert rollup[key] == waldo_sizes[key]


class TestObservability:
    def test_tier_layer_reports_counters(self, two_volume_system):
        system = two_volume_system
        _write_files(system)
        system.query_engine()
        stats = system.stats()
        assert "tier" in stats
        counters = stats["tier"]["counters"]
        assert counters["volumes"] == 2
        assert counters["drains"] > 0
        assert counters["federations"] == 1
        assert set(counters) == {"volumes", "drains", "federations"}


class TestOneQueue:
    def test_drained_segments_leave_the_logs(self, two_volume_system):
        """A closed segment waits on its log until Waldo ingests it;
        after the drain the database is all that remains of it."""
        system = two_volume_system
        _write_files(system, count=8, sync=False)
        for name in VOLUMES:
            system.tier.lasagna(name).sync()
            assert system.tier.lasagna(name).log.closed_segments
        assert system.tier.drain() > 0
        for name in VOLUMES:
            assert not system.tier.lasagna(name).log.closed_segments
            assert system.tier.waldo(name).segments_processed > 0
            assert len(system.database(name)) > 0

class TestCrashRecover:
    def test_tier_crash_and_recover_round_trip(self, two_volume_system):
        system = two_volume_system
        _write_files(system, sync=False)
        # Rotate segments out but never drain: everything is in logs.
        for name in VOLUMES:
            log = system.tier.lasagna(name).log
            log.flush()
            log.rotate()
            assert log.closed_segments
        assert sum(len(db) for db in system.databases()) == 0
        system.tier.crash()
        report = system.tier.recover(consume=True)
        assert report.committed_records
        assert all(len(db) for db in system.databases())
        after = sum(len(db) for db in system.databases())
        assert after == len(report.committed_records)
        second = system.tier.recover(consume=True)
        assert second.clean and not second.committed_records
        assert sum(len(db) for db in system.databases()) == after

    def test_sync_after_crash_drains_the_undrained_segments(
            self, two_volume_system):
        """Segments closed but not drained when the machine dies stay
        on the log; the next sync ingests them and recovery finds the
        log already consumed -- every committed record ends up in the
        databases, none in neither place."""
        system = two_volume_system
        _write_files(system, sync=False)
        committed = 0
        for name in VOLUMES:
            lasagna = system.tier.lasagna(name)
            lasagna.sync()                  # flush + rotate, no drain
            committed += len(recover(lasagna).committed_records)
        assert committed and not any(len(db) for db in system.databases())
        requeued, _ = system.tier.crash()
        assert requeued == len(VOLUMES)
        system.sync()
        report = system.tier.recover(consume=True)
        assert not report.committed_records
        assert sum(len(db) for db in system.databases()) == committed
