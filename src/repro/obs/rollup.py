"""Dimension rollups over metrics snapshots and journal events.

The metrics registry keys everything by (layer, volume); multi-volume
boots and the PA-NFS fleet need the same numbers re-aggregated
along whatever axis a dashboard slices by -- per layer across all
volumes, per volume across all layers, per (layer, volume) pair, or,
for journal events, per site/kind.  These are pure functions over the
already-snapshotted dicts, so they work identically on one machine's
snapshot or on many machines' snapshots merged upstream.

Histogram summaries merge conservatively: ``count``/``sum``/``min``/
``max``/``mean`` are exact across the merge; percentiles cannot be
combined from summaries, so the rollup reports the *maximum* of each
input percentile -- an upper bound, which is the safe direction for
SLO checks.
"""

from __future__ import annotations

from typing import Iterable, Optional

#: Axes :func:`rollup` accepts.
DIMENSIONS = ("layer", "volume")


def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Combine histogram summaries (exact moments, max percentiles)."""
    out = {"count": 0, "sum": 0.0, "min": None, "max": 0.0,
           "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    for summ in summaries:
        if not summ.get("count"):
            continue
        out["count"] += summ["count"]
        out["sum"] += summ.get("sum", 0.0)
        low = summ.get("min", 0.0)
        out["min"] = low if out["min"] is None else min(out["min"], low)
        out["max"] = max(out["max"], summ.get("max", 0.0))
        for key in ("p50", "p90", "p99"):
            out[key] = max(out[key], summ.get(key, 0.0))
    out["min"] = out["min"] if out["min"] is not None else 0.0
    out["mean"] = out["sum"] / out["count"] if out["count"] else 0.0
    return out


def _sections(snapshot: dict):
    """Yield (layer, volume-or-None, section) leaves of a snapshot.

    The layer-wide section already folds the per-volume numbers in, so
    a rollup uses *either* the layer totals (volume axis absent) or the
    per-volume sections (volume axis present) -- never both, which
    would double-count.
    """
    for layer, section in snapshot.items():
        volumes = section.get("volumes", {})
        if volumes:
            for volume, sub in volumes.items():
                yield layer, volume, sub
            # Direct (volume-less) metrics of a layer that also has
            # volumes: expose them under the pseudo-volume None by
            # subtracting? No -- the registry folds per-volume into the
            # totals, so totals-minus-volumes is the direct remainder.
            remainder = _remainder(section, volumes)
            if any(remainder[k] for k in ("counters", "gauges")):
                yield layer, None, remainder
        else:
            yield layer, None, section


def _remainder(section: dict, volumes: dict) -> dict:
    counters: dict[str, float] = dict(section.get("counters", {}))
    gauges: dict[str, float] = dict(section.get("gauges", {}))
    for sub in volumes.values():
        for name, value in sub.get("counters", {}).items():
            if name in counters:
                counters[name] -= value
        for name, value in sub.get("gauges", {}).items():
            if name in gauges:
                gauges[name] -= value
    counters = {name: value for name, value in counters.items() if value}
    gauges = {name: value for name, value in gauges.items() if value}
    return {"counters": counters, "gauges": gauges, "histograms": {}}


def rollup(snapshot: dict, by: Iterable[str] = ("layer",)) -> dict:
    """Re-aggregate a metrics snapshot along the given dimensions.

    ``by`` is any subset of :data:`DIMENSIONS`; the result maps the
    joined key (``"<layer>"``, ``"<volume>"``, or ``"<layer>/<volume>"``
    -- missing axes render as ``*``) to merged
    ``{"counters", "gauges", "histograms"}`` sections.

        rollup(snap, by=("volume",))   # per-volume, across all layers
        rollup(snap, by=("layer", "volume"))
    """
    axes = tuple(by)
    for axis in axes:
        if axis not in DIMENSIONS:
            raise ValueError(f"unknown rollup dimension: {axis!r} "
                             f"(have: {', '.join(DIMENSIONS)})")
    use_volumes = "volume" in axes
    out: dict[str, dict] = {}
    if use_volumes:
        sections = _sections(snapshot)
    else:
        # The layer-wide sections already fold per-volume numbers in:
        # use them whole instead of re-assembling from volume leaves.
        sections = ((layer, None, section)
                    for layer, section in snapshot.items())
    for layer, volume, section in sections:
        parts = []
        if "layer" in axes:
            parts.append(layer)
        if use_volumes:
            parts.append(volume if volume is not None else "*")
        key = "/".join(parts) if parts else "*"
        bucket = out.setdefault(key, {"counters": {}, "gauges": {},
                                      "histograms": {}})
        for name, value in section.get("counters", {}).items():
            bucket["counters"][name] = \
                bucket["counters"].get(name, 0) + value
        for name, value in section.get("gauges", {}).items():
            bucket["gauges"][name] = bucket["gauges"].get(name, 0) + value
        for name, summ in section.get("histograms", {}).items():
            existing = bucket["histograms"].get(name)
            bucket["histograms"][name] = merge_summaries(
                [existing, summ] if existing else [summ])
    return out


def journal_rollup(events: list[dict], by: str = "kind",
                   value_field: Optional[str] = None) -> dict:
    """Aggregate journal events along one event field.

    ``by`` names the grouping field (``kind``, ``layer``, ``volume``,
    ``site`` -- any field an event carries); the result maps each group
    to ``{"events": N}`` plus, when ``value_field`` is given, the sum
    of that numeric field (e.g. ``records`` per group).
    """
    out: dict[str, dict] = {}
    for event in events:
        key = str(event.get(by, "-"))
        bucket = out.setdefault(key, {"events": 0})
        bucket["events"] += 1
        if value_field is not None:
            value = event.get(value_field)
            if isinstance(value, (int, float)):
                bucket[value_field] = bucket.get(value_field, 0) + value
    return out
