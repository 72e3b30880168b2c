"""Metrics registry: counters and histograms keyed by layer.

The registry is the numeric half of :mod:`repro.obs`.  It answers the
question the paper's Figure 2 poses but the reproduction could not:
*how many events did each layer see, drop, deduplicate, or flush?*

Design constraints (see ISSUE 2):

* **leaf module** -- imports nothing from the rest of ``repro``, so
  every layer may hold a registry handle without bending the Figure-2
  import discipline;
* **cheap by default** -- a disabled registry's ``inc`` returns after
  one attribute test; an enabled ``inc`` is a single dict update;
* **zero-cost harvesting** -- layers that already keep plain Python
  statistics attributes (the interceptor's event counts, the analyzer's
  dedup totals, ...) register a *collector*: a callable returning a flat
  ``{name: number}`` dict, consulted only at :meth:`snapshot` time, so
  the hot path pays nothing at all;
* **layer + volume keying** -- per-volume components (Lasagna, Waldo)
  report under their volume, and the snapshot shows both the per-volume
  breakdown and the layer-wide totals.
"""

from __future__ import annotations

from typing import Callable, Optional

#: A collector: zero-argument callable returning {metric name: number}.
Collector = Callable[[], dict]

#: Maximum raw samples a histogram retains for percentile estimation.
#: Beyond this the reservoir wraps (ring buffer) -- count/sum/min/max
#: stay exact, percentiles become recent-window estimates.
HISTOGRAM_CAPACITY = 4096


class Histogram:
    """Streaming summary of observations with percentile estimates.

    Count, sum, min, and max are exact over the full stream; percentiles
    are computed over the most recent :data:`HISTOGRAM_CAPACITY` samples
    (a ring, so long benchmark runs stay bounded in memory).
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_next")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: list[float] = []
        self._next = 0          # ring cursor once the reservoir is full

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < HISTOGRAM_CAPACITY:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % HISTOGRAM_CAPACITY

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of the retained samples,
        by linear interpolation between closest ranks.

        An empty histogram has no percentiles: asking for one raises a
        clear ``ValueError`` (callers that want zeros-for-empty use
        :meth:`summary`, which guards the empty case itself)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            raise ValueError(
                "percentile of an empty histogram is undefined "
                "(no observations recorded)")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    def summary(self) -> dict:
        """Stable-schema dict used by ``repro stats --json``.  An empty
        histogram summarizes as all zeros (snapshots of idle layers
        must stay renderable)."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Per-machine metric store, keyed by (layer, volume, name)."""

    def __init__(self, enabled: bool = True,
                 layers: tuple[str, ...] = ()) -> None:
        self.enabled = enabled
        #: (layer, volume-or-None, name) -> number.  Flat dicts keep the
        #: enabled hot path to one update.
        self._counters: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._collectors: dict[tuple[str, Optional[str]], list[Collector]] = {}
        #: Layers that must appear in every snapshot even when silent
        #: (the documented contract keys).
        self._declared: list[str] = list(layers)

    # -- configuration ---------------------------------------------------------

    def declare(self, layer: str) -> None:
        """Guarantee ``layer`` appears in snapshots (contract key)."""
        if layer not in self._declared:
            self._declared.append(layer)

    def add_collector(self, layer: str, collector: Collector,
                      volume: Optional[str] = None) -> None:
        """Harvest ``collector()`` into ``layer``'s counters at snapshot
        time.  Collectors cost nothing between snapshots -- the right
        tool for counters a layer already maintains."""
        self.declare(layer)
        self._collectors.setdefault((layer, volume), []).append(collector)

    # -- hot-path updates -------------------------------------------------------

    def inc(self, layer: str, name: str, n: float = 1,
            volume: Optional[str] = None) -> None:
        """Add ``n`` to a counter (single dict update when enabled)."""
        if not self.enabled:
            return
        key = (layer, volume, name)
        counters = self._counters
        counters[key] = counters.get(key, 0) + n

    def observe(self, layer: str, name: str, value: float,
                volume: Optional[str] = None) -> None:
        """Record one histogram observation."""
        if not self.enabled:
            return
        key = (layer, volume, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.observe(value)

    # -- reads -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Nested view: layer -> counters/histograms (+ volumes).

        Collector output and per-volume metrics are folded into the
        layer-wide counter totals; per-volume breakdowns appear under
        the layer's ``"volumes"`` key.  Always includes every declared
        layer, so the key set is a stable contract for CI.  A disabled
        registry reports nothing (collectors are not consulted).
        """
        if not self.enabled:
            return {}
        layers: dict[str, dict] = {}

        def section(layer: str, volume: Optional[str]) -> dict:
            top = layers.setdefault(layer, {"counters": {},
                                            "histograms": {}})
            if volume is None:
                return top
            per_vol = top.setdefault("volumes", {})
            return per_vol.setdefault(volume, {"counters": {},
                                               "histograms": {}})

        def fold_counter(layer: str, volume: Optional[str],
                         name: str, value: float) -> None:
            sect = section(layer, volume)
            sect["counters"][name] = sect["counters"].get(name, 0) + value
            if volume is not None:       # per-volume rolls into the total
                top = section(layer, None)
                top["counters"][name] = top["counters"].get(name, 0) + value

        for layer in self._declared:
            section(layer, None)
        for (layer, volume, name), value in self._counters.items():
            fold_counter(layer, volume, name, value)
        for (layer, volume), collectors in self._collectors.items():
            for collector in collectors:
                for name, value in collector().items():
                    fold_counter(layer, volume, name, value)
        for (layer, volume, name), histogram in self._histograms.items():
            section(layer, volume)["histograms"][name] = histogram.summary()
            if volume is not None:
                section(layer, None)["histograms"].setdefault(
                    name, histogram.summary())
        return layers
