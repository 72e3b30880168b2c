"""Standard-format exporters for spans and metrics (passview).

Three formats, all deterministic (same snapshot in, same bytes out):

* :func:`chrome_trace` -- the Chrome trace-event JSON format ("X"
  complete events), loadable in ``chrome://tracing`` and Perfetto;
* :func:`prometheus_text` -- the Prometheus text exposition format
  (version 0.0.4): counters and histogram summaries with
  ``quantile`` labels, names and label values escaped per the spec;
* :func:`collapsed_stacks` -- semicolon-collapsed stack lines
  aggregated from the span tree (Brendan Gregg's folded format), the
  input every flamegraph renderer accepts.

Everything here is pure: functions take the already-exported span dicts
(:meth:`Tracer.export`) or metrics snapshot (:meth:`MetricsRegistry.
snapshot`) and return strings/dicts.  No clocks, no I/O, no imports
from the rest of ``repro`` -- the module stays inside the obs leaf.
"""

from __future__ import annotations

import json
import re

#: Prefix stamped on every exported Prometheus metric name.
PROM_PREFIX = "repro"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


# -- Chrome trace events ------------------------------------------------------

def chrome_trace(spans: list[dict], clock: str = "wall",
                 process_name: str = "repro") -> dict:
    """Spans as a Chrome trace-event document (JSON-serializable dict).

    Each span becomes one complete ("X") event.  ``clock`` selects the
    timestamp source: ``"wall"`` uses real Python seconds, ``"sim"``
    the simulated clock.  Timestamps are microseconds relative to the
    earliest span, so documents are small and stable.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"unknown clock: {clock!r}")
    start_key = "wall_start" if clock == "wall" else "sim_start"
    elapsed_key = "wall_elapsed" if clock == "wall" else "sim_elapsed"
    origin = min((span.get(start_key, 0.0) for span in spans),
                 default=0.0)
    events = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 1,
        "args": {"name": process_name},
    }]
    for span in spans:
        args = {key: _json_safe(value)
                for key, value in sorted(span.get("tags", {}).items())}
        args["span_id"] = span["span_id"]
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        events.append({
            "name": span["name"],
            "cat": span.get("layer") or "-",
            "ph": "X",
            "ts": round((span.get(start_key, 0.0) - origin) * 1e6, 3),
            "dur": round(span.get(elapsed_key, 0.0) * 1e6, 3),
            "pid": 1,
            "tid": span.get("depth", 0) + 1,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "spans": len(spans)},
    }


def chrome_trace_json(spans: list[dict], clock: str = "wall") -> str:
    """The Chrome trace document serialized (sorted keys: two exports
    of the same span list are byte-identical)."""
    return json.dumps(chrome_trace(spans, clock=clock), sort_keys=True,
                      indent=2) + "\n"


def _json_safe(value):
    """Tag values that JSON cannot carry verbatim become strings."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# -- Prometheus text exposition -----------------------------------------------

def prom_name(*parts: str) -> str:
    """A legal Prometheus metric name from dotted/arbitrary parts:
    illegal characters collapse to ``_``, a leading digit gains one."""
    name = "_".join(_NAME_BAD_CHARS.sub("_", part)
                    for part in parts if part)
    if not name:
        return "_"
    if not _NAME_OK.match(name):
        name = "_" + name
    return name


def prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote, and newline are backslash-escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{_LABEL_BAD_CHARS.sub("_", key)}="{prom_label_value(value)}"'
        for key, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value != value:    # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: dict, prefix: str = PROM_PREFIX) -> str:
    """A metrics snapshot as the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total``-style samples labelled
    ``{layer=...}`` (plus ``volume=`` for per-volume breakdowns);
    histograms become summary samples with ``quantile`` labels plus
    ``_sum``/``_count``.  Output ordering is fully sorted, so two
    exports of the same snapshot are byte-identical.
    """
    lines: list[str] = []
    counters: dict[str, list[str]] = {}
    summaries: dict[str, list[str]] = {}

    def walk(layer: str, section: dict, volume: str | None) -> None:
        labels = [("layer", layer)]
        if volume is not None:
            labels = labels + [("volume", volume)]
        for name, value in sorted(section.get("counters", {}).items()):
            metric = prom_name(prefix, name)
            counters.setdefault(metric, []).append(
                f"{metric}{_labels(labels)} {_format_value(value)}")
        for name, summ in sorted(section.get("histograms", {}).items()):
            metric = prom_name(prefix, name)
            rows = summaries.setdefault(metric, [])
            for quantile, key in (("0.5", "p50"), ("0.9", "p90"),
                                  ("0.99", "p99")):
                rows.append(f"{metric}"
                            f"{_labels(labels + [('quantile', quantile)])} "
                            f"{_format_value(summ.get(key, 0.0))}")
            rows.append(f"{metric}_sum{_labels(labels)} "
                        f"{_format_value(summ.get('sum', 0.0))}")
            rows.append(f"{metric}_count{_labels(labels)} "
                        f"{_format_value(summ.get('count', 0))}")

    for layer in sorted(snapshot):
        section = snapshot[layer]
        walk(layer, section, None)
        for volume in sorted(section.get("volumes", {})):
            walk(layer, section["volumes"][volume], volume)

    for metric in sorted(counters):
        lines.append(f"# TYPE {metric} counter")
        lines.extend(sorted(counters[metric]))
    for metric in sorted(summaries):
        lines.append(f"# TYPE {metric} summary")
        lines.extend(sorted(summaries[metric]))
    return "\n".join(lines) + ("\n" if lines else "")


# -- collapsed stacks (flamegraph input) --------------------------------------

def collapsed_stacks(spans: list[dict], clock: str = "wall") -> str:
    """Span tree -> folded stack lines (``a;b;c <microseconds>``).

    Each line is a root-to-span path with the span's *self* time (its
    elapsed minus its children's), aggregated over every occurrence of
    that path and reported in integer microseconds.  Lines are sorted,
    so two exports of the same span list are byte-identical.  This is
    the input format of every flamegraph renderer.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"unknown clock: {clock!r}")
    elapsed_key = "wall_elapsed" if clock == "wall" else "sim_elapsed"
    by_id = {span["span_id"]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) \
                + span.get(elapsed_key, 0.0)

    def frame(span: dict) -> str:
        layer = span.get("layer") or "-"
        return f"{layer}:{span['name']}".replace(";", "_") \
            .replace("\n", " ")

    paths: dict[int, str] = {}

    def path_of(span: dict) -> str:
        span_id = span["span_id"]
        cached = paths.get(span_id)
        if cached is None:
            parent = by_id.get(span.get("parent_id"))
            cached = frame(span) if parent is None \
                else path_of(parent) + ";" + frame(span)
            paths[span_id] = cached
        return cached

    folded: dict[str, int] = {}
    for span in spans:
        self_time = span.get(elapsed_key, 0.0) \
            - child_time.get(span["span_id"], 0.0)
        micros = max(0, int(round(self_time * 1e6)))
        path = path_of(span)
        folded[path] = folded.get(path, 0) + micros
    lines = [f"{path} {value}" for path, value in sorted(folded.items())]
    return "\n".join(lines) + ("\n" if lines else "")
