"""Lightweight tracing: nestable spans over simulated and wall time.

A span measures one region of pipeline work (a Lasagna sync, a Waldo
drain, a PQL evaluation) on *both* clocks that matter here:

* the **simulated clock** -- what the modelled 2009 hardware would have
  spent, the number the paper's tables are made of;
* the **wall clock** -- what the Python reproduction actually spent,
  the number perf work on this codebase is made of.

Spans nest: entering a span makes it the parent of spans opened inside
it, so a trace of ``system.sync`` shows the Lasagna flushes and Waldo
drains it triggered as children.  Finished spans land in a bounded ring
buffer per :class:`Tracer` (per machine), exportable as dicts.

Tracing is off by default.  A disabled tracer hands out one shared
no-op span, so instrumented code pays a single branch.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Callable, Optional

#: Default ring-buffer capacity (finished spans retained per tracer).
TRACE_CAPACITY = 2048


class Span:
    """One timed region.  Use via ``with tracer.span(...)``."""

    __slots__ = ("name", "layer", "span_id", "parent_id", "depth", "tags",
                 "sim_start", "sim_end", "wall_start", "wall_end")

    def __init__(self, name: str, layer: str, span_id: int,
                 parent_id: Optional[int], depth: int, tags: dict,
                 sim_start: float, wall_start: float):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.tags = tags
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.wall_start = wall_start
        self.wall_end = wall_start

    @property
    def sim_elapsed(self) -> float:
        """Simulated seconds spent inside the span."""
        return self.sim_end - self.sim_start

    @property
    def wall_elapsed(self) -> float:
        """Real (Python) seconds spent inside the span."""
        return self.wall_end - self.wall_start

    def tag(self, name: str, value) -> None:
        """Attach one annotation to the span."""
        self.tags[name] = value

    def to_dict(self) -> dict:
        """Stable-schema dict used by ``repro trace --json``.

        ``wall_start`` is included for the Chrome trace exporter, which
        needs absolute start stamps to lay spans on a timeline."""
        return {
            "name": self.name,
            "layer": self.layer,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "sim_start": self.sim_start,
            "sim_elapsed": self.sim_elapsed,
            "wall_start": self.wall_start,
            "wall_elapsed": self.wall_elapsed,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return (f"<Span {self.name} sim={self.sim_elapsed:.6f}s "
                f"wall={self.wall_elapsed * 1e3:.3f}ms>")


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def tag(self, name: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager binding a :class:`Span` to its tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        span = self._span
        tracer = self._tracer
        span.sim_end = tracer._sim_now()
        span.wall_end = time.perf_counter()
        stack = tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        finished = tracer._finished
        if len(finished) == finished.maxlen:
            # The ring is full: appending evicts the oldest finished
            # span.  Count it -- a truncated trace must say so.
            tracer.dropped_spans += 1
        finished.append(span)


class Tracer:
    """Per-machine span collector with a bounded ring buffer."""

    def __init__(self, enabled: bool = False,
                 sim_now: Optional[Callable[[], float]] = None,
                 capacity: int = TRACE_CAPACITY):
        self.enabled = enabled
        self._sim_now = sim_now or (lambda: 0.0)
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        #: Finished spans evicted from the full ring (SLO: must be 0
        #: for a trace to be trusted as complete).
        self.dropped_spans = 0

    def bind_clock(self, sim_now: Callable[[], float]) -> None:
        """Point the tracer at the machine's simulated clock.

        This is the one sanctioned way for instrumentation to read
        simulated time: spans carry it, instead of every call site
        fetching ``clock.now`` ad hoc."""
        self._sim_now = sim_now

    def span(self, name: str, layer: str = "", **tags):
        """Open a span; use as a context manager.

        Disabled tracers return a shared no-op span, so call sites
        need no conditional of their own."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name, layer, next(self._ids),
            parent.span_id if parent is not None else None,
            parent.depth + 1 if parent is not None else 0,
            tags, self._sim_now(), time.perf_counter(),
        )
        return _ActiveSpan(self, span)

    def current_ids(self) -> tuple[Optional[int], Optional[int]]:
        """(trace_id, span_id) of the innermost open span, or (None,
        None) outside any span.  The trace id is the root span's id, so
        every event emitted under one top-level span shares it."""
        stack = self._stack
        if not stack:
            return None, None
        return stack[0].span_id, stack[-1].span_id

    # -- reads -----------------------------------------------------------------

    def export(self) -> dict:
        """Finished spans as stable-schema dicts, plus the drop count:
        ``{"spans": [...], "dropped_spans": N}``.  A nonzero
        ``dropped_spans`` means the ring overflowed and the span list
        is the *newest* window, not the whole story."""
        return {
            "spans": [span.to_dict() for span in self._finished],
            "dropped_spans": self.dropped_spans,
        }
