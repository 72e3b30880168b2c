"""Unit tests for the clock, disk cost model, and page cache."""

import random

import pytest

from repro.core.errors import VolumeError
from repro.kernel.cache import PageCache
from repro.kernel.clock import SimClock, Stopwatch
from repro.kernel.disk import SimulatedDisk
from repro.kernel.params import CacheParams, DiskParams
from repro.obs import Observability


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_category_breakdown(self):
        clock = SimClock()
        clock.advance(1.0, "disk_read")
        clock.advance(2.0, "user_cpu")
        clock.advance(0.5, "disk_read")
        assert clock.breakdown() == {"disk_read": 1.5, "user_cpu": 2.0}

    def test_stopwatch(self):
        clock = SimClock()
        with Stopwatch(clock) as watch:
            clock.advance(3.25)
        assert watch.elapsed == 3.25


class TestDisk:
    def make(self):
        clock = SimClock()
        disk = SimulatedDisk(clock, DiskParams())
        disk.add_region("a", 10000)
        disk.add_region("b", 10000)
        return clock, disk

    def test_sequential_access_is_transfer_only(self):
        clock, disk = self.make()
        disk.write(0, 4096)
        t_after_first = clock.now
        disk.write(1, 4096)        # head is at block 1 already
        second_cost = clock.now - t_after_first
        assert second_cost == pytest.approx(4096 / disk.params.transfer_rate)
        # The first write (head already at block 0) was sequential too.
        assert disk.seeks == 0
        assert disk.sequential_accesses == 2

    def test_long_jump_costs_full_seek(self):
        clock, disk = self.make()
        disk.write(0, 4096)
        before = clock.now
        disk.read(9000, 4096)
        cost = clock.now - before
        expected = (disk.params.avg_seek + disk.params.rotational
                    + 4096 / disk.params.transfer_rate)
        assert cost == pytest.approx(expected)

    def test_short_jump_costs_track_seek(self):
        clock, disk = self.make()
        disk.write(0, 4096)
        before = clock.now
        disk.write(100, 4096)      # within short_seek_blocks
        cost = clock.now - before
        expected = disk.params.short_seek + 4096 / disk.params.transfer_rate
        assert cost == pytest.approx(expected)

    def test_clustered_write_does_not_move_head(self):
        clock, disk = self.make()
        disk.write(5000, 4096)
        head = disk._head
        disk.clustered_write(8192, barrier=0.001)
        assert disk._head == head

    def test_clustered_write_cost(self):
        clock, disk = self.make()
        before = clock.now
        disk.clustered_write(4096, barrier=0.002)
        expected = (disk.params.short_seek + 0.002
                    + 4096 / disk.params.transfer_rate)
        assert clock.now - before == pytest.approx(expected)

    def test_region_allocation_exhaustion(self):
        clock, disk = self.make()
        region = disk.region("a")
        region.allocate(10000)
        with pytest.raises(VolumeError):
            region.allocate(1)

    def test_duplicate_region_rejected(self):
        clock, disk = self.make()
        with pytest.raises(VolumeError):
            disk.add_region("a", 10)

    def test_unknown_region_rejected(self):
        clock, disk = self.make()
        with pytest.raises(VolumeError):
            disk.region("zzz")

    def test_negative_io_rejected(self):
        clock, disk = self.make()
        with pytest.raises(ValueError):
            disk.write(0, -5)

    def test_byte_counters(self):
        clock, disk = self.make()
        disk.write(0, 1000)
        disk.read(0, 500)
        assert disk.bytes_written == 1000
        assert disk.bytes_read == 500


def page(block):
    """One block as the run list ``read`` and ``write`` take."""
    return [range(block, block + 1)]


class TestPageCacheUnit:
    def test_miss_then_hit(self):
        cache = PageCache(CacheParams(capacity_pages=4))
        assert cache.read(1, page(0)) == [(0, 1)]    # the miss brings it in
        assert cache.read(1, page(0)) == []
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order(self):
        cache = PageCache(CacheParams(capacity_pages=2))
        cache.write(1, page(0))
        cache.write(1, page(1))
        assert cache.read(1, page(0)) == []          # refresh 0
        cache.write(1, page(2))                      # evicts 1
        assert blocks_of(cache) == [0, 2]

    def test_shrink_evicts(self):
        cache = PageCache(CacheParams(capacity_pages=10))
        for block in range(10):
            cache.write(1, page(block))
        cache.shrink(0.5)
        assert len(cache) == 5
        assert cache._capacity == 5
        # The *oldest* pages went.
        assert blocks_of(cache) == [5, 6, 7, 8, 9]

    def test_shrink_bad_factor(self):
        cache = PageCache()
        with pytest.raises(ValueError):
            cache.shrink(0)
        with pytest.raises(ValueError):
            cache.shrink(1.5)

    def test_invalidate_volume(self):
        cache = PageCache(CacheParams(capacity_pages=10))
        cache.write(1, page(0))
        cache.write(2, page(0))
        cache.invalidate_volume(1)
        assert list(cache.lru_order()) == [(2, 0)]


def cache_holding(capacity, blocks, volume_id=1):
    """A cache whose LRU order is exactly ``blocks``, oldest first."""
    cache = PageCache(CacheParams(capacity_pages=capacity))
    for block in blocks:
        cache.write(volume_id, page(block))
    assert blocks_of(cache) == list(blocks) and cache.evictions == 0
    return cache


def blocks_of(cache):
    return [block for _, block in cache.lru_order()]


class TestPageCacheRuns:
    """The two entry points of the data path, worked by hand."""

    def test_write_is_one_pass_then_one_eviction_check(self):
        """The contract the pins were recorded with: same final order
        as one write per block, but *not* the same eviction count."""
        cache = cache_holding(3, [5, 1, 2])
        cache.write(1, [range(4, 6)])
        assert blocks_of(cache) == [2, 4, 5]
        assert cache.evictions == 1          # page 1; 5 was only moved
        per_block = cache_holding(3, [5, 1, 2])
        per_block.write(1, page(4))          # evicts 5 ...
        per_block.write(1, page(5))          # ... and brings it back
        assert blocks_of(per_block) == [2, 4, 5]
        assert per_block.evictions == 2

    def test_write_retouches_its_own_earlier_pages(self):
        cache = PageCache(CacheParams(capacity_pages=8))
        cache.write(1, [range(2, 6), range(0, 4)])
        assert blocks_of(cache) == [4, 5, 0, 1, 2, 3]
        assert len(cache) == 6 and cache.evictions == 0

    def test_write_longer_than_the_cache_evicts_its_own_head(self):
        cache = PageCache(CacheParams(capacity_pages=4))
        cache.write(1, [range(0, 6)])
        assert blocks_of(cache) == [2, 3, 4, 5]
        assert cache.evictions == 2

    def test_read_gap_evicts_a_later_page_of_the_same_read(self):
        """Block 3 is cached when the read starts, the oldest page, and
        gone by the time the read reaches it: a miss, not a hit."""
        cache = cache_holding(4, [3, 10, 11, 12])
        assert cache.read(1, [range(0, 4)]) == [(0, 4)]
        assert (cache.hits, cache.misses, cache.evictions) == (0, 4, 4)
        assert blocks_of(cache) == [0, 1, 2, 3]

    def test_read_hit_splits_the_missing_runs(self):
        cache = cache_holding(8, [2, 3])
        assert cache.read(1, [range(0, 6)]) == [(0, 2), (4, 2)]
        assert (cache.hits, cache.misses) == (2, 4)
        assert blocks_of(cache) == [0, 1, 2, 3, 4, 5]

    def test_read_gap_longer_than_the_cache(self):
        cache = PageCache(CacheParams(capacity_pages=4))
        assert cache.read(1, [range(0, 10)]) == [(0, 10)]
        assert (cache.hits, cache.misses, cache.evictions) == (0, 10, 6)
        assert blocks_of(cache) == [6, 7, 8, 9]

    def test_read_of_a_repeated_block_misses_once(self):
        cache = PageCache(CacheParams(capacity_pages=4))
        assert cache.read(1, [range(7, 8)] * 3) == [(7, 1)]
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    def test_missing_runs_join_across_adjacent_extents_only(self):
        cache = PageCache(CacheParams(capacity_pages=16))
        runs = [range(0, 2), range(2, 4), range(8, 10)]
        assert cache.read(1, runs) == [(0, 4), (8, 2)]

    def test_volumes_do_not_share_pages(self):
        cache = PageCache(CacheParams(capacity_pages=8))
        cache.write(1, [range(0, 3)])
        assert cache.read(2, [range(0, 3)]) == [(0, 3)]
        assert list(cache.lru_order()) == [(1, 0), (1, 1), (1, 2),
                                           (2, 0), (2, 1), (2, 2)]

    def test_runs_gauge_counts_runs_not_pages(self):
        obs = Observability()
        cache = PageCache(CacheParams(capacity_pages=64), obs=obs)
        cache.write(1, [range(0, 30)])
        assert cache.read(1, page(10)) == []  # splits the run in three
        counters = obs.stats()["cache"]["counters"]
        assert counters["pages"] == 30
        assert counters["runs"] == 3


class TestStateGrowth:
    def test_hits_do_not_grow_the_touch_log(self):
        """A count, not a timing: a hit appends to the touch log and
        kills an older entry lazily, so a hit-only workload must not
        let the log outgrow the runs it describes."""
        capacity = 512
        cache = PageCache(CacheParams(capacity_pages=capacity))
        cache.write(1, [range(0, capacity)])
        rng = random.Random(23)
        for _ in range(100_000):
            assert cache.read(1, page(rng.randrange(capacity))) == []
        assert (cache.hits, cache.evictions, len(cache)) == (100_000, 0,
                                                             capacity)
        runs = len(cache._starts)
        assert runs <= capacity
        assert len(cache._log_ticks) <= 2 * runs + 64
