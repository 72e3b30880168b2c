"""StorageTier facade unit tests: routing, topology, rollups, archive.

The facade contract: ``shards=1`` is the classic pipeline (same labels,
same single database), sharded topologies route records stably by
subject pnode, ``sizes()`` never undercounts, and the drained-segment
archive stays within its compaction policy.
"""

import pytest

from repro.core.pnode import shard_of
from repro.storage.tier import (
    CompactionPolicy,
    SegmentArchive,
    StorageTier,
)
from repro.system import BootConfig, System


def _write_files(system, count=6, payload=b"x" * 64):
    with system.process(argv=["writer"]) as proc:
        for index in range(count):
            fd = proc.open(f"/pass/f{index}.dat", "w")
            proc.write(fd, payload)
            proc.close(fd)
    system.sync()


class TestShardRouting:
    def test_stable_and_in_range(self):
        for pnode in range(0, 5000, 7):
            index = shard_of(pnode, 4)
            assert 0 <= index < 4
            assert shard_of(pnode, 4) == index

    def test_single_shard_is_identity(self):
        assert all(shard_of(pnode, 1) == 0 for pnode in range(100))

    def test_spreads_consecutive_pnodes(self):
        """Pnode numbers are near-consecutive per volume; the mix must
        not map runs of them onto one shard."""
        counts = [0, 0, 0, 0]
        for pnode in range(1000):
            counts[shard_of(pnode, 4)] += 1
        assert min(counts) > 125          # perfectly even would be 250

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            StorageTier(shards=0)
        with pytest.raises(ValueError):
            StorageTier(shards=2, shard_key="rack")


class TestSingleShardIdentity:
    def test_labels_and_layout_match_the_classic_pipeline(self):
        system = System.boot()
        tier = system.tier
        assert tier.shard_count("pass") == 1
        assert tier.waldo("pass").name == "pass"
        assert tier.lasagna("pass").log is tier.lasagna("pass").shard_logs[0]
        assert len(system.databases()) == 1

    def test_volume_key_ignores_shard_count(self):
        system = System.boot(shards=4, shard_key="volume")
        assert system.tier.shard_count("pass") == 1


class TestShardedTopology:
    def test_shard_labels_carry_the_shard_suffix(self):
        system = System.boot(shards=3)
        names = [waldo.name for waldo in system.tier.waldos("pass")]
        assert names == ["pass/s0", "pass/s1", "pass/s2"]

    def test_records_route_across_shard_databases(self):
        system = System.boot(shards=4)
        _write_files(system, count=12)
        populated = [db for db in system.tier.databases("pass")
                     if len(db)]
        assert len(populated) >= 2

    def test_parallel_drain_runs_with_quiet_observability(self):
        system = System.boot(shards=4, observability=False)
        _write_files(system)
        assert system.tier.parallel_drains > 0

    def test_tracing_forces_serial_drain(self):
        system = System.boot(shards=4, tracing=True)
        _write_files(system)
        assert system.tier.parallel_drains == 0


class TestSizesRollup:
    def test_totals_are_the_sum_of_every_shard(self):
        system = System.boot(shards=4)
        _write_files(system, count=10)
        rollup = system.tier.sizes("pass")
        shard_sizes = [waldo.database.sizes()
                       for waldo in system.tier.waldos("pass")]
        for key in ("database", "indexes", "total"):
            assert rollup[key] == sum(sizes[key] for sizes in shard_sizes)
        assert set(rollup["per_shard"]) == {
            waldo.name for waldo in system.tier.waldos("pass")}
        assert rollup["total"] > 0

    def test_system_sizes_matches_tier_rollup(self):
        system = System.boot(shards=2)
        _write_files(system)
        assert system.sizes() == system.tier.sizes()

    def test_single_shard_rollup_matches_waldo_sizes(self):
        system = System.boot()
        _write_files(system)
        waldo_sizes = system.tier.waldo("pass").sizes()
        rollup = system.tier.sizes("pass")
        for key in ("database", "indexes", "total"):
            assert rollup[key] == waldo_sizes[key]


class TestObservability:
    def test_tier_layer_reports_counters(self):
        system = System.boot(shards=2)
        _write_files(system)
        system.query_engine()
        stats = system.stats()
        assert "tier" in stats
        counters = stats["tier"]["counters"]
        assert counters["shards"] == 2
        assert counters["drains"] > 0
        assert counters["federations"] == 1
        assert counters["segments_archived"] > 0

    def test_per_shard_waldo_metrics_have_shard_labels(self):
        system = System.boot(shards=2)
        _write_files(system)
        volumes = system.stats()["waldo"].get("volumes", {})
        assert {"pass/s0", "pass/s1"} <= set(volumes)


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

    def test_drained_segments_reach_the_tier_archives(self):
        system = System.boot(shards=2)
        _write_files(system, count=8)
        archived = sum(archive.segments_archived
                       for archive in system.tier.archives("pass"))
        assert archived > 0
        rollup = system.tier.compact()
        assert rollup["bytes_reclaimed"] >= 0
        assert all(not archive.segments
                   for archive in system.tier.archives("pass"))


class TestCrashRecover:
    def test_tier_crash_and_recover_round_trip(self):
        system = System.boot(shards=4)
        with system.process(argv=["writer"]) as proc:
            for index in range(6):
                fd = proc.open(f"/pass/g{index}.dat", "w")
                proc.write(fd, b"y" * 48)
                proc.close(fd)
        # Rotate segments out but never drain: everything is in logs.
        for log in system.tier.lasagna("pass").shard_logs:
            log.flush()
            log.rotate()
        before = sum(len(db) for db in system.databases())
        assert before == 0
        system.tier.crash()
        report = system.tier.recover(consume=True)
        assert report.committed_records
        after = sum(len(db) for db in system.databases())
        assert after == len(report.committed_records)
        second = system.tier.recover(consume=True)
        assert second.clean and not second.committed_records
