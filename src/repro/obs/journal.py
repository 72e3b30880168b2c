"""Structured event journal: bounded, sampled, trace-correlated (passview).

The journal is the durable-record half of the observability stack: where
metrics answer "how many" and spans answer "how long", journal events
answer "what happened, in what order, inside which span".  Hot-path
seams that already exist -- group commits, bulk Waldo drains, recovery
replays, fault firings, PQL plan compiles -- emit one event each, so a
failed crashtest or a regressed benchmark can be read back as a
sequence of concrete pipeline decisions.

Design constraints (the same ones the rest of ``repro.obs`` obeys):

* **leaf module** -- imports nothing from the rest of ``repro``;
* **cheap when off** -- a disabled journal's :meth:`~EventJournal.emit`
  returns after one attribute test (the NULL_OBS configuration);
* **bounded** -- events land in a ring; overflow *counts* drops
  (``events_dropped``) instead of pretending the record is complete;
* **sampled** -- high-frequency kinds keep 1-in-N per kind
  (deterministic counter sampling, no RNG); critical kinds (faults,
  recovery, slow queries) bypass sampling via ``always=True``;
* **correlated** -- every event carries the trace/span ids of the span
  open at emit time, so ``repro crashtest`` failures line up with the
  exact span in which the fault fired.

The export format is JSONL (one JSON object per line, sorted keys), the
append-friendly shape every log shipper understands.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Optional

#: Default ring capacity (events retained per journal).
JOURNAL_CAPACITY = 4096

#: Default sampling interval: keep every event.  ``sample_interval=N``
#: keeps the 1st, N+1th, ... event of each kind.
SAMPLE_INTERVAL = 1

#: Default slow-query threshold (wall seconds).  Queries at or above it
#: are journaled with their compiled plan and cache-hit status.
SLOW_QUERY_THRESHOLD_S = 0.050


class EventJournal:
    """Bounded, sampled event ring with trace/span correlation."""

    def __init__(self, enabled: bool = False,
                 capacity: int = JOURNAL_CAPACITY,
                 sample_interval: int = SAMPLE_INTERVAL,
                 slow_query_threshold_s: float = SLOW_QUERY_THRESHOLD_S,
                 sim_now: Optional[Callable[[], float]] = None):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        self.sample_interval = sample_interval
        self.slow_query_threshold_s = slow_query_threshold_s
        self._sim_now = sim_now or (lambda: 0.0)
        #: Tracer consulted for the current trace/span ids; bound by
        #: Observability so events correlate with open spans.
        self._tracer = None
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._seen_by_kind: dict[str, int] = {}
        # Statistics (exposed via stats(), harvestable as a collector).
        self.events_emitted = 0
        self.events_sampled_out = 0
        self.events_dropped = 0
        self.slow_queries_recorded = 0

    # -- wiring ----------------------------------------------------------------

    def bind_clock(self, sim_now: Callable[[], float]) -> None:
        """Point the journal at the machine's simulated clock."""
        self._sim_now = sim_now

    def bind_tracer(self, tracer) -> None:
        """Correlate events with the tracer's open span (if any)."""
        self._tracer = tracer

    # -- the hot-path entry point ----------------------------------------------

    def emit(self, kind: str, layer: str = "",
             volume: Optional[str] = None, always: bool = False,
             **fields) -> Optional[dict]:
        """Record one event; returns it, or None when off/sampled out.

        ``kind`` is the event name (dotted, e.g. ``log.group_commit``);
        ``always=True`` bypasses sampling (faults, recovery, slow
        queries -- anything rare enough that losing one would matter).
        """
        if not self.enabled:
            return None
        seen = self._seen_by_kind.get(kind, 0)
        self._seen_by_kind[kind] = seen + 1
        if not always and self.sample_interval > 1 \
                and seen % self.sample_interval:
            self.events_sampled_out += 1
            return None
        trace_id = span_id = None
        if self._tracer is not None:
            trace_id, span_id = self._tracer.current_ids()
        self._seq += 1
        event = {
            "seq": self._seq,
            "kind": kind,
            "layer": layer,
            "volume": volume,
            "sim_t": self._sim_now(),
            "wall_t": time.perf_counter(),
            "trace_id": trace_id,
            "span_id": span_id,
        }
        if fields:
            event.update(fields)
        if len(self._events) == self._events.maxlen:
            self.events_dropped += 1
        self._events.append(event)
        self.events_emitted += 1
        return event

    def slow_query(self, text: str, wall_s: float, cache_hit: bool,
                   rows: int = 0, plan: str = "",
                   shape: str = "") -> Optional[dict]:
        """Journal a query if it crossed the latency threshold.

        ``text`` is the query as the caller wrote it, ``shape`` its
        plan-cache key (literals lifted out), ``plan`` a compact
        rendering of the compiled plan, ``cache_hit`` whether
        the plan cache served it.  Slow queries bypass sampling.
        """
        if not self.enabled or wall_s < self.slow_query_threshold_s:
            return None
        event = self.emit("pql.slow_query", layer="pql", always=True,
                          query=text, shape=shape, plan=plan, wall_s=wall_s,
                          cache_hit=cache_hit, rows=rows)
        if event is not None:
            self.slow_queries_recorded += 1
        return event

    # -- reads -----------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> list[dict]:
        """Retained events, oldest first (optionally one kind only)."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def stats(self) -> dict:
        """Journal bookkeeping counters (flat, collector-shaped)."""
        return {
            "events_emitted": self.events_emitted,
            "events_sampled_out": self.events_sampled_out,
            "events_dropped": self.events_dropped,
            "events_retained": len(self._events),
            "slow_queries_recorded": self.slow_queries_recorded,
        }

    def to_jsonl(self) -> str:
        """The retained events as JSONL (one object per line, sorted
        keys -- byte-identical across exports of the same ring)."""
        return "".join(json.dumps(event, sort_keys=True, default=str) + "\n"
                       for event in self._events)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<EventJournal {state}: {len(self._events)} retained, "
                f"{self.events_dropped} dropped>")
