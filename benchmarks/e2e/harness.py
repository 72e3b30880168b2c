"""One measured run of one workload, in this process.

A run is: generate inputs, boot the default ``BootConfig()``, unmeasured
set-up, one ``gc.collect()``, then the measured region -- for every
round, capture -> ``System.sync()`` -> fresh query pass -> warm queries
-- and, outside it, the correctness checks.  One client, one thread, a
closed loop: the next operation starts when the previous one returned.
The garbage collector stays at the interpreter's defaults.

Only public API is driven: ``System``, ``Syscalls``, ``LibPass``,
``QueryEngine``, ``System.stats()/sizes()/fsck()`` and
``engine.catalog.counters()``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import statistics
import time

from repro.core.pnode import ObjectRef
from repro.system import System

from trace import Tracer
from workloads import KINDS, WORKLOADS

PHASES = ("capture", "sync", "fresh", "warm")

#: Seed and scale the pinned counts in ``pins.json`` were recorded at.
PIN_SEED = 1
PIN_SCALE = 1.0
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Run:
    """State of one measured run."""

    def __init__(self, workload, system: System, tracer):
        self.workload = workload
        self.system = system
        self.tracer = tracer
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.fresh_s: list[float] = []
        #: (query, OEMNode rows or the exception raised, seconds, warm?)
        self.answered: list[tuple] = []
        #: Per sync point: (records sync() returned, records stored).
        self.syncs: list[tuple] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.setup_s = self.e2e_wall_s = self.peak_rss_mib = 0.0

    # -- the measured region ----------------------------------------------

    @contextlib.contextmanager
    def _phase(self, name: str):
        if self.tracer is not None:
            self.tracer.begin_phase(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] += time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.end_phase()

    def _ask(self, engine, queries, warm: bool) -> None:
        perf = time.perf_counter
        execute = engine.execute
        answered = self.answered
        for query in queries:
            started = perf()
            try:
                # Rows stay graph nodes until check(): turning them into
                # ObjectRefs here would fill the heap with the harness's
                # own objects and charge the program for collecting them.
                rows = execute(query.text)
            except Exception as error:   # a failed op, counted in check()
                rows = error
            answered.append((query, rows, perf() - started, warm))

    def measure(self, process_started: float) -> None:
        workload, system = self.workload, self.system
        self.setup_s = time.perf_counter() - process_started
        for round_index in range(workload.rounds):
            with self._phase("capture"):
                workload.capture(system, round_index)
            # Between phases the clock is stopped: building the query
            # lists and the sync accounting are the harness's own work.
            fresh = workload.fresh_queries(round_index)
            warm = workload.warm_queries(round_index)
            with self._phase("sync"):
                inserted = system.sync()
            before = self.phase_s["fresh"]
            with self._phase("fresh"):
                engine = system.query_engine()
                self._ask(engine, fresh, warm=False)
            self.fresh_s.append(self.phase_s["fresh"] - before)
            with self._phase("warm"):
                self._ask(engine, warm, warm=True)
            self.syncs.append((inserted, sum(len(database) for database
                                             in system.databases())))
        self.e2e_wall_s = sum(self.phase_s.values())
        self.peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks (outside every timed region) ------------------------------

    def _check(self, passed: bool, message: str) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(message)

    def check(self, pins, break_reference: bool = False) -> dict:
        """Every answer against the workload's reference, the sync
        accounting, fsck, and -- for the pinned seed -- the counts that
        say the workload still does the same work.

        ``break_reference`` puts an object that does not exist into the
        first reference answer: the smoke test's proof that a wrong
        reference fails the run."""
        reference = self.workload.reference(self.system)
        for query, rows, _, _ in self.answered:
            if isinstance(rows, Exception):
                self._check(False, f"{query.text}: raised {rows!r}")
                continue
            expected = set(query.expect(reference))
            if break_reference:
                expected.add(ObjectRef(0, 0))
                break_reference = False
            self._check(
                bool(expected) and len(rows) == len(expected)
                and {node.ref for node in rows} == expected,
                f"{query.text}: {len(rows)} rows, reference has "
                f"{len(expected)}")
        returned = 0
        for index, (inserted, stored) in enumerate(self.syncs):
            returned += inserted
            self._check(returned == stored,
                        f"sync {index}: returned {returned} records in "
                        f"all, databases hold {stored}")
        report = self.system.fsck()
        self._check(report.clean, f"fsck: {report}")
        if self.tracer is not None:
            coverage = self.coverage_pct()
            self._check(abs(coverage - 100.0) <= 2.0,
                        f"trace.coverage_pct {coverage:.2f} is not within "
                        f"2 of 100")
        observed = {
            "events_total": self.system.stats()["interceptor"]["counters"]
            ["events_total"],
            "records": self.syncs[-1][1],
            "sim_elapsed_s": self.system.elapsed(),
        }
        if pins is not None:
            for key, pinned in pins.items():
                self._check(
                    math.isclose(observed[key], pinned, rel_tol=1e-9),
                    f"pin {key}: {observed[key]!r}, pinned {pinned!r}")
        return observed

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        records = self.syncs[-1][1]
        warm = [seconds for _, _, seconds, is_warm in self.answered
                if is_warm]
        return {
            "setup_s": self.setup_s,
            "e2e_wall_s": self.e2e_wall_s,
            "ingest_records_per_s": records / (self.phase_s["capture"]
                                               + self.phase_s["sync"]),
            "fresh_query_s": statistics.median(self.fresh_s),
            "warm_query_p50_ms": 1e3 * statistics.median(warm),
            "sim_elapsed_s": self.system.elapsed(),
            "prov_bytes_per_record": self.system.sizes()["total"] / records,
            "peak_rss_mib": self.peak_rss_mib,
            "error_rate": _ratio(len(self.failures), self.attempted),
        }

    def per_layer(self) -> dict:
        """Counts after the run; with a tracer, self seconds and calls."""
        system = self.system
        stats = {layer: section["counters"]
                 for layer, section in system.stats().items()}
        sizes = system.sizes()
        engine = system.query_engine()
        catalog = engine.catalog.counters()
        graph = engine.graph
        analyzer, pql, log = stats["analyzer"], stats["pql"], stats["lasagna"]
        out = {
            "kernel.syscalls.events": stats["interceptor"]["events_total"],
            "core.libpass.records_disclosed":
                stats["observer"]["disclosed_records"],
            "core.observer.events_in":
                stats["interceptor"]["events_total"]
                - stats["interceptor"]["events_unobserved"],
            "core.observer.records_emitted":
                stats["observer"]["records_emitted"],
            "core.analyzer.protos_in": analyzer["records_in"],
            "core.analyzer.records_out": analyzer["records_out"],
            "core.analyzer.dedup_ratio": _ratio(
                analyzer["duplicates_dropped"], analyzer["records_in"]),
            "core.analyzer.freezes": analyzer["freezes"],
            "core.distributor.records_in": analyzer["records_out"],
            "core.distributor.records_flushed":
                stats["distributor"]["records_flushed"],
            "core.distributor.cached_records":
                stats["distributor"]["records_cached"],
            "storage.lasagna.bundles":
                stats["distributor"]["batches_dispatched"],
            "storage.lasagna.data_writes": log["data_writes"],
            "storage.log.records": log["log_records"],
            "storage.log.bytes": log["log_bytes"],
            "storage.log.bytes_per_record": _ratio(log["log_bytes"],
                                                   log["log_records"]),
            "storage.log.flushes": log["log_flushes"],
            "storage.log.group_commits": log["batch_flushes"],
            "storage.waldo.drains": stats["waldo"]["drains"],
            "storage.waldo.segments": stats["waldo"]["segments_processed"],
            "storage.waldo.records_inserted":
                stats["waldo"]["records_inserted"],
            "storage.database.records": self.syncs[-1][1],
            "storage.database.main_bytes": sizes["database"],
            "storage.database.index_bytes": sizes["indexes"],
            "storage.tier.syncs": len(self.syncs),
            "storage.tier.drains": stats["tier"]["drains"],
            "pql.oem.nodes": len(graph),
            "pql.oem.edges": sum(len(targets) for node in graph.nodes()
                                 for targets in node.edges.values()),
            "pql.indexes.view_hit_ratio": _ratio(
                catalog["view_hits"],
                catalog["view_hits"] + catalog["view_refreshes"]),
            "pql.engine.queries": pql["queries_executed"],
            "pql.engine.plan_compiles": pql["plan_compiles"],
            "pql.engine.plan_cache_hit_ratio": _ratio(
                pql.get("parse_cache_hits", 0),
                pql.get("parse_cache_hits", 0) + pql["parses"]),
        }
        for counter, value in catalog.items():
            out[f"pql.indexes.{counter}"] = value
        by_kind: dict[str, list] = {kind: [] for kind in KINDS}
        for query, _, seconds, is_warm in self.answered:
            if is_warm:
                by_kind[query.kind].append(seconds)
        # Every mix has at least 1000 warm queries at --scale 1.0, so
        # at least ten samples lie beyond the 99th percentile.
        out["pql.engine.warm_p99_ms"] = 1e3 * percentile(
            [seconds for kind in by_kind.values() for seconds in kind], 0.99)
        for kind, seconds in by_kind.items():
            # 0 where the workload's mix has no query of this kind.
            out[f"pql.engine.{kind}_p50_ms"] = (
                1e3 * statistics.median(seconds) if seconds else 0.0)
        for phase in PHASES:
            out[f"phase.{phase}_s"] = self.phase_s[phase]
        if self.tracer is not None:
            out.update(self._traced())
        return out

    def coverage_pct(self) -> float:
        """Share of the measured region some span's self time covers."""
        return (100.0 * sum(self.tracer.self_by_name().values())
                / self.e2e_wall_s)

    def _traced(self) -> dict:
        tracer = self.tracer
        by_layer = tracer.self_by_layer()
        by_name = tracer.self_by_name()
        entries = tracer.entries_by_layer()
        out = {}
        for layer in by_layer[PHASES[0]]:
            out[f"{layer}.self_s"] = sum(by_layer[phase][layer]
                                         for phase in PHASES)
        # The three pql layers report their self time under the names
        # the mechanisms are known by.
        out["pql.oem.build_s"] = by_name.get("OEMGraph.build", 0.0)
        out["pql.oem.apply_batch_self_s"] = (
            out["pql.oem.self_s"] - out["pql.oem.build_s"])
        out["pql.engine.execute_self_s"] = out.pop("pql.engine.self_s")
        for layer in ("kernel.volume", "core.libpass"):
            out[f"{layer}.calls"] = entries[layer]
        out["trace.coverage_pct"] = self.coverage_pct()
        return out


def run_once(name: str, seed: int, scale: float, traced: bool,
             trace_out, process_started: float,
             break_reference: bool = False) -> dict:
    """One (workload, repeat): returns the JSON-able result."""
    workload = WORKLOADS[name](seed, scale)
    system = System.boot()          # the default BootConfig()
    workload.setup(system)
    tracer = Tracer() if traced else None
    run = Run(workload, system, tracer)
    if tracer is not None:
        tracer.install()
    gc.collect()
    try:
        run.measure(process_started)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    pins = None
    if seed == PIN_SEED and scale == PIN_SCALE:
        with open(PINS_PATH) as handle:
            pins = json.load(handle).get(name)
    observed = run.check(pins, break_reference)
    result = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "end_to_end": run.end_to_end(),
        "per_layer": run.per_layer(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "observed": observed,
        "warm_queries": sum(1 for entry in run.answered if entry[3]),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_by_layer()
        if trace_out:
            tracer.write_chrome(trace_out)
    return result
