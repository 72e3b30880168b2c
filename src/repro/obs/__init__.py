"""Observability for the provenance pipeline (ISSUE 2 + ISSUE 7).

``repro.obs`` is a *leaf* layer: it imports nothing from the rest of
``repro``, and every other layer may import it -- the same position
``repro.core.errors`` occupies, enforced by the PL208 lint rule.  One
:class:`Observability` instance belongs to each simulated machine
(:class:`repro.kernel.kernel.Kernel`) and carries:

* :class:`~repro.obs.metrics.MetricsRegistry` -- counters and
  histograms keyed by Figure-2 layer (and volume where relevant);
* :class:`~repro.obs.trace.Tracer` -- nestable spans over simulated and
  wall clocks, collected in a ring buffer;
* :class:`~repro.obs.journal.EventJournal` -- bounded, sampled,
  trace-correlated events from the hot-path seams (group commits,
  drains, recovery, fault firings) plus the slow-query log.

The export-and-analysis half (passview) sits beside them, still inside
the leaf: :mod:`repro.obs.export` (Chrome trace / Prometheus text /
collapsed stacks) and :mod:`repro.obs.health` (SLO verdicts).

Components that are wired without an explicit handle fall back to
:data:`NULL_OBS`, a shared disabled instance, so instrumentation sites
cost one branch when observability is off.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.journal import EventJournal
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, Span, Tracer

#: The Figure-2 layers every snapshot must report (the stats contract;
#: see docs/OBSERVABILITY.md).
FIGURE2_LAYERS = ("interceptor", "observer", "analyzer", "distributor",
                  "lasagna", "waldo", "pql")

#: Supporting layers that also report (page cache, NFS wire).
AUX_LAYERS = ("cache", "nfs")

#: Every documented layer key, in stack order.
LAYERS = FIGURE2_LAYERS + AUX_LAYERS


class Observability:
    """One machine's metrics + tracer + journal."""

    def __init__(self, metrics_enabled: bool = True,
                 trace_enabled: bool = False,
                 journal_enabled: bool = False,
                 sim_now: Optional[Callable[[], float]] = None):
        self.metrics = MetricsRegistry(enabled=metrics_enabled,
                                       layers=LAYERS)
        self.tracer = Tracer(enabled=trace_enabled, sim_now=sim_now)
        self.journal = EventJournal(enabled=journal_enabled,
                                    sim_now=sim_now)
        self.journal.bind_tracer(self.tracer)

    def bind_clock(self, sim_now: Callable[[], float]) -> None:
        """Give spans and journal events access to the machine's
        simulated clock."""
        self.tracer.bind_clock(sim_now)
        self.journal.bind_clock(sim_now)

    # -- convenience delegates (the surface layers actually use) --------------

    def inc(self, layer: str, name: str, n: float = 1,
            volume: Optional[str] = None) -> None:
        self.metrics.inc(layer, name, n, volume=volume)

    def observe(self, layer: str, name: str, value: float,
                volume: Optional[str] = None) -> None:
        self.metrics.observe(layer, name, value, volume=volume)

    def add_collector(self, layer: str, collector,
                      volume: Optional[str] = None) -> None:
        self.metrics.add_collector(layer, collector, volume=volume)

    def span(self, name: str, layer: str = "", **tags):
        return self.tracer.span(name, layer=layer, **tags)

    def event(self, kind: str, layer: str = "",
              volume: Optional[str] = None, always: bool = False,
              **fields) -> None:
        """Journal one structured event (one branch when the journal is
        off; see :meth:`EventJournal.emit`)."""
        if self.journal.enabled:
            self.journal.emit(kind, layer=layer, volume=volume,
                              always=always, **fields)

    def slow_query(self, text: str, wall_s: float, cache_hit: bool,
                   rows: int = 0, plan: str = "",
                   shape: str = "") -> None:
        """Record a query in the slow-query log if it crossed the
        journal's latency threshold."""
        if self.journal.enabled:
            self.journal.slow_query(text, wall_s, cache_hit,
                                    rows=rows, plan=plan, shape=shape)

    def stats(self) -> dict:
        """The metrics snapshot (layer -> counters/histograms)."""
        return self.metrics.snapshot()

    def trace(self) -> list[dict]:
        """The finished spans, exported (list form; see
        :meth:`trace_export` for the drop-count-carrying document)."""
        return self.tracer.export()["spans"]

    def trace_export(self) -> dict:
        """The full trace document: ``{"spans", "dropped_spans"}``."""
        return self.tracer.export()

    def journal_events(self, kind: Optional[str] = None) -> list[dict]:
        """Retained journal events, oldest first."""
        return self.journal.events(kind)

#: Shared disabled instance for components wired without a handle.
#: Never enable it -- boot a machine with observability on instead.
NULL_OBS = Observability(metrics_enabled=False, trace_enabled=False)

__all__ = [
    "AUX_LAYERS",
    "EventJournal",
    "FIGURE2_LAYERS",
    "Histogram",
    "LAYERS",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "Observability",
    "Span",
    "Tracer",
]
