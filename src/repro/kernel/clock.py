"""Virtual clock for the simulated machine.

All costs (CPU, disk, network) advance one shared clock; elapsed
simulated time is simply the clock reading.  The clock also keeps a
breakdown by charge category so benchmarks can attribute overheads
(e.g. how much of PA-NFS's Postmark overhead is stackable copying --
the paper reports 14.8 points of 16.8).
"""

from __future__ import annotations

from collections import defaultdict


class SimClock:
    """Monotonic simulated clock with per-category accounting."""

    def __init__(self) -> None:
        self._now = 0.0
        self._by_category: dict[str, float] = defaultdict(float)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float, category: str = "other") -> None:
        """Advance time by ``seconds``, attributed to ``category``."""
        if seconds < 0:
            raise ValueError(f"time cannot move backwards: {seconds}")
        self._now += seconds
        self._by_category[category] += seconds

    def since(self, t0: float) -> float:
        """Elapsed simulated seconds since an earlier reading.

        The canonical way to measure an epoch on a *shared* clock:
        ``System.boot`` records ``clock.now`` as its boot time and
        reports ``elapsed()`` relative to it, so booting a second
        machine on the same clock (NFS pairs, sequential benchmark
        systems) starts its elapsed time at zero instead of inheriting
        the earlier machine's history."""
        if t0 > self._now:
            raise ValueError(
                f"reference time {t0} is in the future (now {self._now})"
            )
        return self._now - t0

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-category time accounting."""
        return dict(self._by_category)

class Stopwatch:
    """Measures simulated time across a region of code.

    Usage::

        with Stopwatch(clock) as sw:
            run_workload()
        print(sw.elapsed)
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self._clock.now - self._start
