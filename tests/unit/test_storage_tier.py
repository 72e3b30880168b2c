"""StorageTier facade unit tests: layout, accessors, rollups, archive.

The facade contract: one Lasagna (one log), one Waldo, one database and
one archive per PASS volume; ``sizes()`` sums over the volumes; every
accessor raises ``NotPassVolume`` for a volume without provenance
storage; the drained-segment archive stays within its compaction
policy; crash and recovery walk every volume.
"""

import pytest

from repro.core.errors import NotPassVolume
from repro.storage.tier import CompactionPolicy, SegmentArchive
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
        assert tier.waldo("pass").archive is tier.archive("pass")
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
        "database", "lasagna", "waldo", "archive", "sizes"])
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
            waldo_sizes = system.tier.waldo(name).sizes()
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
        assert counters["segments_archived"] >= 2
        assert "shards" not in counters
        assert "parallel_drains" not in counters


class TestArchiveCompaction:
    def _segment(self, index, records=3, nbytes=100):
        class FakeSegment:
            pass

        segment = FakeSegment()
        segment.index = index
        segment.records = [None] * records
        segment.nbytes = nbytes
        return segment

    def test_add_keeps_archive_within_policy(self):
        archive = SegmentArchive(CompactionPolicy(max_segments=3,
                                                  max_bytes=10_000))
        for index in range(10):
            archive.add(self._segment(index))
        assert len(archive.segments) <= 3
        assert archive.segments_archived == 10
        assert archive.segments_compacted == 7
        assert archive.bytes_reclaimed == 700
        # Folded history stays summarized, oldest-first, contiguous.
        assert archive.extents[0].first_index == 0
        assert archive.extents[-1].last_index == 6
        assert sum(extent.records for extent in archive.extents) == 21

    def test_byte_bound_triggers_compaction(self):
        archive = SegmentArchive(CompactionPolicy(max_segments=100,
                                                  max_bytes=250))
        for index in range(4):
            archive.add(self._segment(index, nbytes=100))
        assert archive.archived_bytes <= 250

    def test_force_compact_reclaims_everything(self):
        archive = SegmentArchive(CompactionPolicy())
        for index in range(5):
            archive.add(self._segment(index))
        reclaimed = archive.compact(force=True)
        assert not archive.segments
        assert reclaimed == 500
        assert archive.stats()["segments_compacted"] == 5

    def test_drained_segments_reach_the_tier_archives(
            self, two_volume_system):
        system = two_volume_system
        _write_files(system, count=8)
        archives = [system.tier.archive(name) for name in VOLUMES]
        assert archives[0] is not archives[1]
        assert all(archive.segments_archived > 0 for archive in archives)
        rollup = system.tier.compact()
        assert rollup["segments_compacted"] == sum(
            archive.segments_compacted for archive in archives)
        assert rollup["bytes_reclaimed"] > 0
        assert all(not archive.segments for archive in archives)


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
