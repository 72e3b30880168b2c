"""LRU page cache shared by all volumes on a machine.

Reads that hit the cache cost nothing at the disk; misses go to the
disk and populate the cache.  Writes are write-through (they charge the
disk and populate the cache), which applies identically to the baseline
and the provenance-enabled configurations, so overhead *ratios* are not
distorted.

A stackable file system (Lasagna, modelled on eCryptfs) caches both its
own pages and the lower file system's pages.  We model that as (a) a
per-page copy cost on every page moved through the stack and (b) a
reduced effective capacity for file data (``stack_cache_factor``).
The paper attributes most of Postmark's PA-NFS overhead to exactly this
double buffering (14.8 points of 16.8).

The replacement policy is exact per-page LRU, but pages are stored and
touched as *runs*: files are extents and the data path moves whole
ranges of blocks, so a 97-page write is one cut, one insert and one
eviction pass over whole runs, not 97 dictionary updates.  A page's key
is ``volume_id << 40 | block``; a run is a range of keys whose pages
were last touched by one access, in ascending order.  Pages therefore
age in ``(tick of their run, key)`` order, and that order is all LRU
needs: a touch cuts its range out of whatever runs held it and inserts
it as the newest run; eviction takes pages from the front of the oldest
run.

Cost: an access is a bisect plus list inserts and deletes among the
live runs, so it is O(runs) element moves where the per-page dictionary
was O(pages touched).  The paper's workloads keep one to five thousand
runs for 83,558 resident pages; a one-page access costs about a
microsecond more than a dictionary update did, a 97-page one a tenth of
what it did.  A cache fragmented into tens of thousands of one-page
runs would pay for the moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro.kernel.params import CacheParams
from repro.obs import NULL_OBS

#: A page key is ``volume_id << _VOLUME_SHIFT | block``; block numbers
#: (a disk has 2**26 of them) stay far below the shift.
_VOLUME_SHIFT = 40
_BLOCK_MASK = (1 << _VOLUME_SHIFT) - 1


class PageCache:
    """Exact-LRU cache of (volume id, block number) pages, kept as runs."""

    def __init__(self, params: CacheParams | None = None, obs=NULL_OBS):
        self.params = params or CacheParams()
        self._capacity = self.params.capacity_pages
        self._pages = 0
        # Live runs: disjoint key ranges [start, stop) sorted by start,
        # each with the tick of the access that last touched it.  Flat
        # parallel lists of ints: a run costs the collector nothing.
        self._starts: list[int] = []
        self._stops: list[int] = []
        self._ticks: list[int] = []
        self._tick = 0
        # Touch log, oldest first from ``_log_head``: the (tick, range)
        # of every touch.  A later touch does not edit it; what is left
        # of an entry are the live runs inside its range that still
        # carry its tick (lazy liveness, resolved when it is evicted).
        self._log_ticks: list[int] = []
        self._log_starts: list[int] = []
        self._log_stops: list[int] = []
        self._log_head = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Hit/miss totals are harvested at snapshot time; read() stays
        # untouched by observability.
        obs.add_collector("cache", self._obs_counters)

    def _obs_counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "pages": self._pages,
            "runs": len(self._starts),
            "capacity_pages": self._capacity,
        }

    def shrink(self, factor: float) -> None:
        """Reduce effective capacity (stackable double buffering)."""
        if not 0 < factor <= 1:
            raise ValueError(f"factor must be in (0, 1]: {factor}")
        self._capacity = max(1, int(self._capacity * factor))
        self._evict()

    # -- the two entry points of the data path -------------------------------

    def write(self, volume_id: int, runs: Iterable[range]) -> None:
        """Touch every block of every run, then evict once.

        The contract is that of one pass over the blocks followed by one
        capacity check: a block already cached moves to the newest end,
        a new one is added there, and only when the whole write is in do
        the oldest pages leave until the cache fits.  That is *not* one
        write per block -- the final order is the same but fewer pages
        may be evicted, because a cached block of the write cannot be
        pushed out and brought back by the blocks before it (capacity 3
        holding 5, 1, 2, oldest first: writing 4, 5 evicts one page,
        writing 4 and then 5 evicts two).  A write longer than the
        capacity evicts its own head.
        """
        base = volume_id << _VOLUME_SHIFT
        starts = self._starts
        for run in runs:
            if run:
                lo = base + run.start
                self._touch(lo, base + run.stop, bisect_right(starts, lo))
        self._evict()

    def read(self, volume_id: int,
             runs: Iterable[range]) -> list[tuple[int, int]]:
        """Touch each block in order, adding it on a miss and evicting
        until the cache fits; returns the missing blocks as maximal
        ``(first block, count)`` runs -- a run ends at a hit or at a
        jump in block numbers.

        The range is walked piece by piece.  A cached piece is a row of
        hits, which evict nothing, so touching it whole is touching it
        page by page.  A gap is a row of misses: none of its pages can
        appear while the pages before it are inserted, and inserting k
        new pages one eviction check at a time leaves the cache as one
        check after all k does as long as k is at most the capacity, so
        a gap goes in whole (in capacity-sized slices if longer).  What
        a gap evicts may be a later page of this same read, so the
        liveness of what follows is looked up again after every gap.
        """
        base = volume_id << _VOLUME_SHIFT
        starts, stops = self._starts, self._stops
        missing: list[tuple[int, int]] = []
        growing = False     # no hit since the last missing run was added
        for run in runs:
            pos, end = base + run.start, base + run.stop
            while pos < end:
                after = bisect_right(starts, pos)
                if after and stops[after - 1] > pos:
                    piece, following = stops[after - 1], after
                    while (piece < end and following < len(starts)
                           and starts[following] == piece):
                        piece = stops[following]
                        following += 1
                    piece = min(piece, end)
                    self.hits += piece - pos
                    self._touch(pos, piece, after)
                    growing = False
                else:
                    piece = min(end, pos + self._capacity)
                    if after < len(starts) and starts[after] < piece:
                        piece = starts[after]
                    self.misses += piece - pos
                    self._touch(pos, piece, after)
                    self._evict()
                    block = pos - base
                    if growing and missing[-1][0] + missing[-1][1] == block:
                        missing[-1] = (missing[-1][0],
                                       missing[-1][1] + piece - pos)
                    else:
                        missing.append((block, piece - pos))
                        growing = True
                pos = piece
        return missing

    # -- whole volumes and introspection ---------------------------------------

    def invalidate_volume(self, volume_id: int) -> None:
        """Drop every page of one volume (unmount, crash)."""
        starts, stops = self._starts, self._stops
        first = bisect_left(starts, volume_id << _VOLUME_SHIFT)
        last = bisect_left(starts, (volume_id + 1) << _VOLUME_SHIFT)
        self._pages -= sum(stops[first:last]) - sum(starts[first:last])
        del starts[first:last], stops[first:last], self._ticks[first:last]

    def lru_order(self) -> Iterator[tuple[int, int]]:
        """Every cached ``(volume id, block)``, least recently used first."""
        starts, stops = self._starts, self._stops
        for index in self._runs_by_age():
            for key in range(starts[index], stops[index]):
                yield key >> _VOLUME_SHIFT, key & _BLOCK_MASK

    def __len__(self) -> int:
        return self._pages

    # -- runs --------------------------------------------------------------------

    def _touch(self, lo: int, hi: int, after: int) -> None:
        """Make keys [lo, hi) the newest run: cached pages among them
        are cut out of the runs that held them, the others are added.
        ``after`` is ``bisect_right(starts, lo)``, which every caller
        has already needed."""
        starts, stops, ticks = self._starts, self._stops, self._ticks
        self._tick = tick = self._tick + 1
        held = after - 1                # the one run that can hold lo
        holds = held >= 0 and stops[held] > lo
        if holds and starts[held] == lo and stops[held] == hi:
            ticks[held] = tick                      # the same run again
        elif holds and starts[held] < lo and stops[held] > hi:
            # Inside one run: it splits around the new one and both
            # halves keep its tick.
            starts[after:after] = (lo, hi)
            stops[held:after] = (lo, hi, stops[held])
            ticks[after:after] = (tick, ticks[held])
        else:
            first, added = after, hi - lo
            if holds and starts[held] < lo:
                added -= stops[held] - lo           # its tail is ours now
                stops[held] = lo
            elif holds:
                first = held
            # Runs from ``first`` on start at or after lo: the covered
            # ones go, one reaching past hi keeps what is beyond it.
            last, count = first, len(starts)
            while last < count and stops[last] <= hi:
                added -= stops[last] - starts[last]
                last += 1
            if last < count and starts[last] < hi:
                added -= hi - starts[last]
                starts[last] = hi
            starts[first:last] = (lo,)
            stops[first:last] = (hi,)
            ticks[first:last] = (tick,)
            self._pages += added
        self._log_ticks.append(tick)
        self._log_starts.append(lo)
        self._log_stops.append(hi)
        # Hits only ever append: rebuild from the live runs before dead
        # entries outnumber them.
        if len(self._log_ticks) > 2 * len(starts) + 64:
            order = self._runs_by_age()
            self._log_ticks = [ticks[index] for index in order]
            self._log_starts = [starts[index] for index in order]
            self._log_stops = [stops[index] for index in order]
            self._log_head = 0

    def _runs_by_age(self) -> list[int]:
        """Indexes of the live runs, least recently touched first; runs
        split off one touch share its tick and age by position."""
        return sorted(range(len(self._ticks)), key=self._ticks.__getitem__)

    def _evict(self) -> None:
        """Drop least recently used pages until the cache fits."""
        excess = self._pages - self._capacity
        if excess <= 0:
            return
        self._pages -= excess
        self.evictions += excess
        starts, stops, ticks = self._starts, self._stops, self._ticks
        log_ticks, log_starts = self._log_ticks, self._log_starts
        log_stops = self._log_stops
        head = self._log_head
        while excess:
            # What is left of the oldest touch: runs inside its range
            # that still carry its tick, lowest key (= oldest) first.
            tick, stop = log_ticks[head], log_stops[head]
            index = bisect_left(starts, log_starts[head])
            count = len(starts)
            while (index < count and starts[index] < stop
                   and ticks[index] != tick):
                index += 1
            if index == count or starts[index] >= stop:
                head += 1
                continue
            start = starts[index]
            size = stops[index] - start
            if size > excess:
                size = excess
                starts[index] = start + size
            else:
                del starts[index], stops[index], ticks[index]
            log_starts[head] = start + size
            excess -= size
        self._log_head = head
