"""Property-based tests: log durability and recovery invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.kernel.cache import PageCache
from repro.kernel.clock import SimClock
from repro.kernel.params import CacheParams, LogParams
from repro.storage.log import ProvenanceLog
from repro.storage.waldo import Waldo


def record_strategy():
    return st.builds(
        ProvenanceRecord,
        st.builds(ObjectRef, st.integers(1, 50), st.integers(0, 3)),
        st.sampled_from([Attr.NAME, Attr.TYPE, Attr.ANNOTATION, Attr.PID]),
        st.one_of(st.text(max_size=20), st.integers(0, 1000)),
    )


#: A script: batches of records, each batch flushed together.
batches = st.lists(st.lists(record_strategy(), min_size=1, max_size=5),
                   max_size=15)


@given(batches, st.integers(64, 600))
@settings(max_examples=200)
def test_waldo_sees_every_flushed_record(script, max_size):
    clock = SimClock()
    log = ProvenanceLog(clock, LogParams(max_size=max_size))
    waldo = Waldo(log)
    flushed = []
    for batch in script:
        for record in batch:
            log.append(record)
            flushed.append(record)
        log.flush()
    log.rotate()
    waldo.drain()
    in_db = list(waldo.database.all_records())
    assert len(in_db) == len(flushed)
    # The database clusters records by pnode; per-object order (and the
    # overall multiset) must survive exactly.
    assert sorted(r.key() for r in in_db) == sorted(r.key()
                                                    for r in flushed)
    for pnode in {r.subject.pnode for r in in_db}:
        expected = [r.key() for r in flushed if r.subject.pnode == pnode]
        assert [r.key() for r in waldo.database.records_of(pnode)] == expected
    assert waldo.orphaned == 0


@given(batches, st.integers(0, 14))
@settings(max_examples=200)
def test_crash_loses_only_the_unflushed_suffix(script, crash_after):
    """Whatever was flushed before the crash is fully recoverable; the
    unflushed buffer is gone but nothing partial enters the database."""
    clock = SimClock()
    log = ProvenanceLog(clock, LogParams(max_size=1 << 20))
    waldo = Waldo(log)
    durable = []
    for index, batch in enumerate(script):
        for record in batch:
            log.append(record)
        if index < crash_after:
            log.flush()
            durable.extend(batch)
    log.crash()
    log.rotate()
    waldo.drain()
    in_db = sorted(r.key() for r in waldo.database.all_records())
    assert in_db == sorted(r.key() for r in durable)


@given(batches, st.integers(1, 40))
@settings(max_examples=200)
def test_torn_tail_yields_committed_prefix_only(script, tear):
    """Tearing bytes off the log end never corrupts earlier txns."""
    from repro.storage import codec
    clock = SimClock()
    log = ProvenanceLog(clock, LogParams(max_size=1 << 20))
    for batch in script:
        for record in batch:
            log.append(record)
        log.flush()
    log.crash(drop_tail_bytes=tear)
    decoded = list(codec.decode_stream(bytes(log.current.raw)))
    # Replay txn framing: only complete BEGIN..END pairs may commit.
    committed, open_txn = [], None
    pending = []
    for record in decoded:
        if record.attr == Attr.BEGINTXN:
            open_txn, pending = int(record.value), []
        elif record.attr == Attr.ENDTXN:
            if open_txn == int(record.value):
                committed.extend(pending)
            open_txn, pending = None, []
        elif open_txn is not None:
            pending.append(record)
    flat = [record for batch in script for record in batch]
    assert [r.key() for r in committed] == [r.key() for r in
                                            flat[:len(committed)]]


class ReferenceLRU:
    """The per-page cache the run cache replaced: one list of
    ``(volume id, block)``, least recent first, driven by the old loops
    copied literally -- ``PageCache.insert_many`` for a write,
    ``Volume._charge_read`` for a read."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pages = []
        self.hits = self.misses = self.evictions = 0

    def _evict(self):
        while len(self.pages) > self.capacity:
            self.pages.pop(0)
            self.evictions += 1

    def _touch(self, key):
        if key in self.pages:
            self.pages.remove(key)
        self.pages.append(key)

    def lookup(self, volume_id, block):
        if (volume_id, block) in self.pages:
            self._touch((volume_id, block))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, volume_id, block):
        self._touch((volume_id, block))
        self._evict()

    def write(self, volume_id, blocks):
        for block in blocks:
            self._touch((volume_id, block))
        self._evict()

    def read(self, volume_id, blocks):
        charged = []
        run_start, run_blocks = None, 0
        for block in blocks:
            if self.lookup(volume_id, block):
                if run_start is not None:
                    charged.append((run_start, run_blocks))
                    run_start, run_blocks = None, 0
                continue
            if run_start is None:
                run_start = block
                run_blocks = 1
            elif block == run_start + run_blocks:
                run_blocks += 1
            else:
                charged.append((run_start, run_blocks))
                run_start, run_blocks = block, 1
            self.insert(volume_id, block)
        if run_start is not None:
            charged.append((run_start, run_blocks))
        return charged

    def shrink(self, factor):
        self.capacity = max(1, int(self.capacity * factor))
        self._evict()

    def invalidate_volume(self, volume_id):
        self.pages = [key for key in self.pages if key[0] != volume_id]


volume_ids = st.integers(1, 3)
block_numbers = st.integers(0, 47)
#: What ``Inode.block_runs`` hands the data path: extents in any disk
#: order, overlapping and repeated ranges, and the unallocated tail --
#: one block over and over.
block_ranges = st.lists(
    st.one_of(
        st.builds(lambda first, count: [range(first, first + count)],
                  block_numbers, st.integers(1, 14)),
        st.builds(lambda block, times: [range(block, block + 1)] * times,
                  block_numbers, st.integers(2, 4))),
    min_size=1, max_size=4).map(lambda groups: sum(groups, []))
cache_steps = st.one_of(
    st.tuples(st.just("write"), volume_ids, block_ranges),
    st.tuples(st.just("read"), volume_ids, block_ranges),
    st.tuples(st.just("shrink"), st.sampled_from([0.5, 0.8, 1.0])),
    st.tuples(st.just("invalidate_volume"), volume_ids))


@given(st.lists(cache_steps, max_size=60), st.integers(1, 40))
@settings(max_examples=400)
def test_page_cache_is_true_lru(steps, capacity):
    """Stored as runs, behaving page by page: after every step the
    counters, the size, the whole LRU order and -- for a read -- the
    runs charged to the disk equal the per-page reference's."""
    cache = PageCache(CacheParams(capacity_pages=capacity))
    reference = ReferenceLRU(capacity)
    for name, *args in steps:
        if name in ("write", "read"):
            volume_id, runs = args
            blocks = [block for run in runs for block in run]
            expected = getattr(reference, name)(volume_id, blocks)
            assert getattr(cache, name)(volume_id, runs) == expected
        else:
            assert (getattr(cache, name)(*args)
                    == getattr(reference, name)(*args))
        assert ((cache.hits, cache.misses, cache.evictions)
                == (reference.hits, reference.misses, reference.evictions))
        assert len(cache) == len(reference.pages)
        assert cache._capacity == reference.capacity
        assert list(cache.lru_order()) == reference.pages
