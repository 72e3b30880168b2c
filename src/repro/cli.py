"""Command-line interface to the PASSv2 reproduction.

Everything is an in-memory simulation, so the CLI builds a scenario,
then lets you query or render it::

    python -m repro.cli demo --scenario challenge \
        --query 'select A from Provenance.file as Atlas \
                 Atlas.input* as A where Atlas.name like "%atlas-x.gif"'
    python -m repro.cli demo --scenario malware --tree /pass/codec.bin
    python -m repro.cli demo --scenario quickstart --dot out.dot
    python -m repro.cli bench --scale 0.2
    python -m repro.cli inspect
"""

from __future__ import annotations

import argparse
import sys

from repro.core.records import Attr
from repro.pql.oem import OEMNode
from repro.query.helpers import newest_ref_by_name
from repro.query.report import ancestry_tree, to_dot
from repro.system import System


def build_quickstart(tracing: bool = False, journal: bool = False) -> System:
    """A small pipeline: two files, one transforming process."""
    system = System.boot(tracing=tracing, journal=journal)
    with system.process(argv=["ingest"]) as proc:
        fd = proc.open("/pass/raw.dat", "w")
        proc.write(fd, b"1,2,3\n")
        proc.close(fd)
    with system.process(argv=["transform"]) as proc:
        fd = proc.open("/pass/raw.dat", "r")
        data = proc.read(fd)
        proc.close(fd)
        out = proc.open("/pass/result.dat", "w")
        proc.write(out, data.upper())
        proc.close(out)
    system.sync()
    return system


def build_challenge(tracing: bool = False, journal: bool = False) -> System:
    """The First Provenance Challenge workflow under PA-Kepler."""
    from repro.apps.kepler.challenge import (
        build_challenge as build_wf,
        ensure_dirs,
        generate_inputs,
    )
    from repro.apps.kepler.director import run_workflow

    system = System.boot(tracing=tracing, journal=journal)
    ensure_dirs(system, "/pass/inputs", "/pass/work", "/pass/out")
    generate_inputs(system, "/pass/inputs")
    workflow = build_wf("/pass/inputs", "/pass/work", "/pass/out")
    run_workflow(system, workflow, recording="pass")
    system.sync()
    return system


def build_malware(tracing: bool = False, journal: bool = False) -> System:
    """The section 3.2 malware scenario."""
    from repro.apps.links import Browser, Web

    system = System.boot(tracing=tracing, journal=journal)
    web = Web()
    web.publish("http://portal/", links=["http://codecs/"])
    web.publish("http://codecs/", links=["http://codecs/get"])
    web.publish("http://codecs/get", content=b"MALWARE")

    def alice(sc):
        browser = Browser(sc, web)
        session = browser.new_session()
        browser.visit(session, "http://portal/")
        browser.follow_link(session, 0)
        browser.download(session, "http://codecs/get", "/pass/codec.bin")
        return 0

    def infected(sc):
        fd = sc.open("/pass/codec.bin", "r")
        payload = sc.read(fd)
        sc.close(fd)
        out = sc.open("/pass/victim.doc", "w")
        sc.write(out, payload)
        sc.close(out)
        return 0

    system.register_program("/pass/bin/links", alice)
    system.run("/pass/bin/links")
    system.register_program("/pass/bin/codec", infected)
    system.run("/pass/bin/codec")
    system.sync()
    return system


SCENARIOS = {
    "quickstart": build_quickstart,
    "challenge": build_challenge,
    "malware": build_malware,
}


def _render_row(row) -> str:
    if isinstance(row, OEMNode):
        label = row.name or f"pnode {row.ref.pnode}"
        return f"{row.ref}  {label}  [{row.type or '?'}]"
    if isinstance(row, tuple):
        return "  |  ".join(_render_row(cell) for cell in row)
    return repr(row)


def cmd_demo(args: argparse.Namespace) -> int:
    system = SCENARIOS[args.scenario]()
    print(f"scenario {args.scenario!r}: "
          f"{sum(len(db) for db in system.databases())} provenance "
          f"records, simulated t={system.elapsed():.3f}s", file=sys.stderr)
    if args.query:
        for row in system.query(args.query):
            print(_render_row(row))
    if args.tree:
        graph = system.query_engine().graph
        print(ancestry_tree(graph, newest_ref_by_name(graph, args.tree)))
    if args.dot:
        graph = system.query_engine().graph
        roots = [newest_ref_by_name(graph, name)
                 for name in _interesting_outputs(system)]
        text = to_dot(graph, roots)
        if args.dot == "-":
            print(text)
        else:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.dot}", file=sys.stderr)
    if args.save:
        from repro.storage.database import ProvenanceDatabase
        merged = ProvenanceDatabase("export")
        for db in system.databases():
            merged.insert_many(db.all_records())
        nbytes = merged.save(args.save)
        print(f"saved {len(merged)} records ({nbytes} bytes) to "
              f"{args.save}", file=sys.stderr)
    if not (args.query or args.tree or args.dot or args.save):
        print("nothing asked; try --query / --tree / --dot / --save "
              "(see --help)", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Run PQL against a previously saved database export."""
    import json

    from repro.pql.engine import QueryEngine
    from repro.storage.database import ProvenanceDatabase

    database = ProvenanceDatabase.load(args.db)
    engine = QueryEngine.live([database])
    if args.explain:
        report = engine.explain(args.query)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True,
                             default=str))
        else:
            print(f"query: {report['query']}")
            print(f"shape: {report['shape']}")
            print(f"rows: {report['rows']}")
            for binding in report["bindings"]:
                line = (f"  {binding['variable']}: {binding['access']}"
                        f" (est={binding['est_rows']}"
                        f" actual={binding['actual_rows']}"
                        f" kept={binding['kept_rows']})")
                detail = binding.get("detail")
                if detail:
                    rendered = ", ".join(f"{key}={value}" for key, value
                                         in sorted(detail.items()))
                    line += f" [{rendered}]"
                steps = binding.get("steps")
                if steps:
                    rendered = ", ".join(f"{key}x{value}" for key, value
                                         in sorted(steps.items()))
                    line += f" via {rendered}"
                print(line)
        return 0
    for row in engine.execute(args.query):
        print(_render_row(row))
    return 0


def _interesting_outputs(system: System) -> list[str]:
    names = []
    for db in system.databases():
        for record in db.all_records():
            if record.attr == Attr.NAME and isinstance(record.value, str) \
                    and record.value.startswith("/"):
                names.append(record.value)
    return names[-3:] if names else []


def cmd_fsck(args: argparse.Namespace) -> int:
    """Integrity-check a saved database export; exits nonzero on
    violations so it composes with `lint` in CI."""
    import json

    from repro.storage.database import ProvenanceDatabase
    from repro.storage.fsck import fsck

    database = ProvenanceDatabase.load(args.db)
    report = fsck([database])
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report)
        for finding in report.findings:
            print(f"  {finding}")
    return 0 if report.clean else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: PQL queries and source-tree layer discipline."""
    import os

    from repro.lint import LintReport, all_rules, render_json, render_text
    from repro.lint.layercheck import check_tree
    from repro.lint.pqlcheck import check_query_text

    if args.rules:
        for registered in all_rules():
            print(f"{registered.code}  {registered.severity:7s} "
                  f"{registered.title}")
        return 0

    report = LintReport()
    if args.query:
        report.extend(check_query_text(args.query))
        report.targets_checked += 1
    for target in args.targets:
        if not os.path.exists(target):
            print(f"lint: no such file or directory: {target!r}",
                  file=sys.stderr)
            return 2
        if target.endswith(".pql"):
            with open(target, "r", encoding="utf-8") as handle:
                report.extend(check_query_text(handle.read(),
                                               source=target))
        elif os.path.isdir(target) or target.endswith(".py"):
            try:
                report.extend(check_tree(target))
            except ValueError as exc:
                print(f"lint: {exc}", file=sys.stderr)
                return 2
        else:
            print(f"lint: skipping {target!r} (not a directory, .py, or "
                  ".pql file)", file=sys.stderr)
            continue
        report.targets_checked += 1
    if not report.targets_checked:
        print("lint: nothing to check; pass paths and/or --query",
              file=sys.stderr)
        return 2
    print(render_json(report) if args.json else render_text(report))
    if args.strict and report.warnings:
        return 1
    return 0 if report.ok else 1


#: Canned query run by `stats`/`trace` so the PQL layer has activity
#: to report even when the user supplies no query of their own.
STATS_QUERY = "select F from Provenance.file as F"


def _layer_lines(layers: dict) -> list[str]:
    """Text rendering of a System.stats() snapshot."""
    lines = []
    for layer in sorted(layers):
        section = layers[layer]
        lines.append(f"== {layer} ==")
        for name, value in sorted(section.get("counters", {}).items()):
            lines.append(f"  {name:32s}{value:>12}")
        for name, value in sorted(section.get("gauges", {}).items()):
            lines.append(f"  {name:32s}{value:>12}")
        for name, summ in sorted(section.get("histograms", {}).items()):
            lines.append(
                f"  {name:32s}count={summ['count']} "
                f"mean={summ['mean']:.6g} p50={summ['p50']:.6g} "
                f"p99={summ['p99']:.6g}")
    return lines


def _write_or_print(text: str, out: str | None) -> None:
    """Send exporter output to ``--out FILE`` or stdout."""
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_stats(args: argparse.Namespace) -> int:
    """Build a scenario, exercise a query, dump per-layer metrics."""
    import json

    from repro.obs.export import prometheus_text
    from repro.obs.rollup import rollup

    system = SCENARIOS[args.scenario](tracing=args.trace)
    system.query(args.query or STATS_QUERY)
    fmt = "json" if args.json else args.format
    snapshot = system.stats()
    if args.rollup:
        rolled = rollup(snapshot, by=tuple(args.rollup.split(",")))
        if fmt == "json":
            print(json.dumps(rolled, indent=2, sort_keys=True))
        elif fmt == "prom":
            print(prometheus_text(
                {key: section for key, section in rolled.items()}),
                end="")
        else:
            print("\n".join(_layer_lines(rolled)))
        return 0
    if fmt == "prom":
        _write_or_print(prometheus_text(snapshot), args.out)
        return 0
    payload = {
        "scenario": args.scenario,
        "simulated_elapsed_s": system.elapsed(),
        "layers": snapshot,
    }
    if args.trace:
        payload["spans_collected"] = len(system.trace())
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"scenario {args.scenario!r}: simulated "
              f"t={system.elapsed():.3f}s", file=sys.stderr)
        print("\n".join(_layer_lines(payload["layers"])))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Build a scenario with tracing on and dump the collected spans."""
    import json

    from repro.obs.export import chrome_trace_json

    system = SCENARIOS[args.scenario](tracing=True)
    system.query(args.query or STATS_QUERY)
    document = system.trace_export()
    spans = document["spans"]
    dropped = document["dropped_spans"]
    if args.limit:
        spans = spans[-args.limit:]
    fmt = "json" if args.json else args.format
    if fmt == "chrome":
        _write_or_print(chrome_trace_json(spans, clock=args.clock),
                        args.out)
        return 0
    if fmt == "json":
        print(json.dumps({"spans": spans, "dropped_spans": dropped},
                         indent=2, sort_keys=True))
        return 0
    print(f"{len(spans)} spans (oldest first), {dropped} dropped:",
          file=sys.stderr)
    for span in spans:
        indent = "  " * span["depth"]
        tags = "".join(f" {k}={v}" for k, v in sorted(span["tags"].items()))
        print(f"{indent}{span['name']} [{span['layer'] or '-'}] "
              f"sim={span['sim_elapsed'] * 1e3:.3f}ms "
              f"wall={span['wall_elapsed'] * 1e3:.3f}ms{tags}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Span-tree profile: self-time table or collapsed stacks for
    flamegraph renderers."""
    from repro.obs.export import collapsed_stacks, profile_table

    system = SCENARIOS[args.scenario](tracing=True)
    system.query(args.query or STATS_QUERY)
    document = system.trace_export()
    spans = document["spans"]
    if document["dropped_spans"]:
        print(f"warning: {document['dropped_spans']} spans dropped from "
              f"the ring; the profile undercounts", file=sys.stderr)
    if args.format == "collapsed":
        _write_or_print(collapsed_stacks(spans, clock=args.clock),
                        args.out)
        return 0
    print(f"scenario {args.scenario!r}: {len(spans)} spans, "
          f"{args.clock} clock", file=sys.stderr)
    _write_or_print(profile_table(spans, clock=args.clock, top=args.top),
                    args.out)
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """Build a scenario with the journal on and dump its events."""
    import json

    system = SCENARIOS[args.scenario](tracing=True, journal=True)
    if args.slow_ms is not None:
        system.obs.journal.slow_query_threshold_s = args.slow_ms / 1e3
    system.query(args.query or STATS_QUERY)
    events = system.journal_events(args.kind)
    if args.limit:
        events = events[-args.limit:]
    if args.jsonl:
        for event in events:
            print(json.dumps(event, sort_keys=True, default=str))
        return 0
    stats = system.obs.journal.stats()
    print(f"{len(events)} events ({stats['events_dropped']} dropped, "
          f"{stats['events_sampled_out']} sampled out):", file=sys.stderr)
    for event in events:
        extras = {key: value for key, value in event.items()
                  if key not in ("seq", "kind", "layer", "volume", "sim_t",
                                 "wall_t", "trace_id", "span_id")}
        rendered = "".join(f" {k}={v}" for k, v in sorted(extras.items()))
        where = f"@{event['volume']}" if event["volume"] else ""
        correlation = (f" span={event['trace_id']}/{event['span_id']}"
                       if event["trace_id"] is not None else "")
        print(f"#{event['seq']:<5d} {event['kind']} "
              f"[{event['layer'] or '-'}{where}]"
              f"{correlation}{rendered}")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """SLO health verdict: build a scenario, probe queries, check the
    telemetry against the policy; exits nonzero on breach."""
    import json
    import os

    from repro.obs.health import SLOPolicy, evaluate_health

    slos = SLOPolicy(
        max_dropped_spans=args.max_dropped_spans,
        max_query_p50_s=args.max_p50,
        max_query_p99_s=args.max_p99,
    )
    system = SCENARIOS[args.scenario](tracing=True, journal=True)
    for _ in range(max(1, args.query_repeats)):
        system.query(args.query or STATS_QUERY)

    def load(path):
        if not path or not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    verdict = evaluate_health(
        system.stats(),
        dropped_spans=system.obs.tracer.dropped_spans,
        journal_stats=system.obs.journal.stats(),
        crashtest=load(args.crashtest),
        slos=slos,
    )
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(verdict.render_text())
    return 0 if verdict.ok else 1


BENCH_SCHEMA = "repro-bench/1"


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.workloads import ALL_WORKLOADS
    from repro.workloads.base import overhead_pct, run_local

    workloads = {}
    print(f"{'Benchmark':22s}{'Ext3':>10s}{'PASSv2':>10s}{'Overhead':>10s}")
    for workload_cls in ALL_WORKLOADS:
        workload = workload_cls(scale=args.scale)
        base = run_local(workload, provenance=False)
        passv2 = run_local(workload, provenance=True)
        print(f"{workload.name:22s}{base.elapsed:>9.1f}s"
              f"{passv2.elapsed:>9.1f}s"
              f"{overhead_pct(base, passv2):>9.1f}%")
        workloads[workload.name] = {
            "ext3_elapsed_s": base.elapsed,
            "passv2_elapsed_s": passv2.elapsed,
            "overhead_pct": overhead_pct(base, passv2),
            "provenance_bytes": passv2.provenance_bytes,
            "index_bytes": passv2.index_bytes,
            "layers": passv2.layer_counters(),
        }
    if args.out:
        payload = {"schema": BENCH_SCHEMA, "scale": args.scale,
                   "workloads": workloads}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_crashtest(args: argparse.Namespace) -> int:
    """Enumerate every reachable crash point, replay + recover each,
    and verify the WAP invariant (see docs/TESTING.md)."""
    from repro.crashlab import WORKLOADS, explore

    names = args.workload or sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"crashtest: unknown workload {name!r} "
                  f"(have: {', '.join(sorted(WORKLOADS))})", file=sys.stderr)
            return 2
    report = explore(names, seed=args.seed)
    if args.json:
        print(report.render_json())
    else:
        print(f"crashtest: {report.crash_points} crash points across "
              f"{', '.join(names)} (seed {report.seed})")
        for name in names:
            hits = report.site_hits.get(name, {})
            print(f"  {name}: {sum(hits.values())} reachable hits over "
                  f"{len(hits)} sites")
        print(f"  wap violations:   {report.wap_violation_count}")
        print(f"  non-idempotent:   {report.non_idempotent}")
        print(f"  fsck dirty:       {report.fsck_dirty}")
        print(f"  unfired points:   {report.unfired}")
        for point in report.points:
            if not point.ok:
                print(f"  FAIL {point.workload} {point.site}#{point.hit} "
                      f"[{point.action}] wap={len(point.wap_violations)} "
                      f"idempotent={point.idempotent} "
                      f"fsck={point.fsck_findings}")
    return 0 if report.ok else 1


def cmd_inspect(args: argparse.Namespace) -> int:
    system = build_quickstart()
    kernel = system.kernel
    tier = system.tier
    log = tier.lasagna("pass").log
    waldo = tier.waldo("pass")
    print("PASSv2 components after the quickstart scenario:")
    print(f"  interceptor   events={dict(kernel.interceptor.counts)}")
    print(f"  analyzer      in={kernel.analyzer.records_in} "
          f"out={kernel.analyzer.records_out} "
          f"dups={kernel.analyzer.duplicates_dropped} "
          f"freezes={kernel.analyzer.freezes}")
    print(f"  distributor   cached={kernel.distributor.records_cached} "
          f"flushed={kernel.distributor.records_flushed}")
    print(f"  lasagna       [{log.volume_name}] flushes={log.flushes} "
          f"log-bytes={log.bytes_logged}")
    print(f"  waldo         [{waldo.name}] "
          f"records={len(waldo.database)} sizes={waldo.database.sizes()}")
    print(f"  tier          {len(tier.volumes())} volume(s) "
          f"total={tier.sizes()['total']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="PASSv2 reproduction: scenarios, queries, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a scenario and query it")
    demo.add_argument("--scenario", choices=sorted(SCENARIOS),
                      default="quickstart")
    demo.add_argument("--query", help="PQL query to run")
    demo.add_argument("--tree", metavar="NAME",
                      help="print the ancestry tree of a named object")
    demo.add_argument("--dot", metavar="FILE",
                      help="write a Graphviz rendering ('-' for stdout)")
    demo.add_argument("--save", metavar="FILE",
                      help="export the merged provenance database")
    demo.set_defaults(func=cmd_demo)

    query = sub.add_parser("query",
                           help="run PQL against a saved database export")
    query.add_argument("--db", required=True,
                       help="database export from 'demo --save'")
    query.add_argument("query", help="PQL query text")
    query.add_argument("--explain", action="store_true",
                       help="print the planner's per-binding access "
                            "choices (index / scan / view, estimated "
                            "vs actual rows) instead of result rows")
    query.add_argument("--json", action="store_true",
                       help="with --explain: machine-readable plan")
    query.set_defaults(func=cmd_query)

    fsck_cmd = sub.add_parser("fsck",
                              help="integrity-check a saved export")
    fsck_cmd.add_argument("--db", required=True)
    fsck_cmd.add_argument("--json", action="store_true",
                          help="machine-readable report for CI")
    fsck_cmd.set_defaults(func=cmd_fsck)

    lint = sub.add_parser(
        "lint", help="static analysis: PQL queries (PL1xx) and the "
                     "repro tree's layer discipline (PL2xx, PL303)")
    lint.add_argument("targets", nargs="*", metavar="PATH",
                      help="directories / .py files inside a repro "
                           "package (layer discipline) or .pql files "
                           "(query checks)")
    lint.add_argument("--query", metavar="TEXT",
                      help="PQL query text to check statically")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report for CI")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too")
    lint.add_argument("--rules", action="store_true",
                      help="list every registered PL### rule and exit")
    lint.set_defaults(func=cmd_lint)

    bench = sub.add_parser(
        "bench", help="quick Table 2 (left) run")
    bench.add_argument("--scale", type=float, default=0.2)
    bench.add_argument("--out", metavar="FILE",
                       help="also write the results as JSON to FILE")
    bench.set_defaults(func=cmd_bench)

    stats = sub.add_parser(
        "stats", help="build a scenario and dump per-layer metrics")
    stats.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="quickstart")
    stats.add_argument("--query", metavar="TEXT",
                       help="PQL query to exercise (default: canned)")
    stats.add_argument("--trace", action="store_true",
                       help="also collect spans (reported as a count)")
    stats.add_argument("--format", choices=("text", "json", "prom"),
                       default="text",
                       help="output format (prom = Prometheus text "
                            "exposition; default %(default)s)")
    stats.add_argument("--json", action="store_true",
                       help="alias for --format json")
    stats.add_argument("--rollup", metavar="DIMS",
                       help="aggregate across dimensions: 'layer', "
                            "'volume', or 'layer,volume'")
    stats.add_argument("--out", metavar="FILE",
                       help="write the exposition to FILE instead of "
                            "stdout (prom format only)")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="build a scenario with tracing on and dump spans")
    trace.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="quickstart")
    trace.add_argument("--query", metavar="TEXT",
                       help="PQL query to exercise (default: canned)")
    trace.add_argument("--limit", type=int, metavar="N",
                       help="only the newest N spans")
    trace.add_argument("--format", choices=("text", "json", "chrome"),
                       default="text",
                       help="output format (chrome = trace-event JSON "
                            "loadable in Perfetto; default %(default)s)")
    trace.add_argument("--json", action="store_true",
                       help="alias for --format json")
    trace.add_argument("--clock", choices=("wall", "sim"), default="wall",
                       help="timestamp source for chrome output "
                            "(default %(default)s)")
    trace.add_argument("--out", metavar="FILE",
                       help="write chrome output to FILE instead of "
                            "stdout")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile", help="span-tree self-time profile / collapsed stacks")
    profile.add_argument("--scenario", choices=sorted(SCENARIOS),
                         default="quickstart")
    profile.add_argument("--query", metavar="TEXT",
                         help="PQL query to exercise (default: canned)")
    profile.add_argument("--format", choices=("table", "collapsed"),
                         default="table",
                         help="table = top frames by self time; "
                              "collapsed = Brendan Gregg folded stacks "
                              "for flamegraph renderers "
                              "(default %(default)s)")
    profile.add_argument("--clock", choices=("wall", "sim"),
                         default="wall",
                         help="time base (default %(default)s)")
    profile.add_argument("--top", type=int, default=20, metavar="N",
                         help="table rows (default %(default)s)")
    profile.add_argument("--out", metavar="FILE",
                         help="write output to FILE instead of stdout")
    profile.set_defaults(func=cmd_profile)

    journal = sub.add_parser(
        "journal", help="build a scenario with the event journal on "
                        "and dump its events")
    journal.add_argument("--scenario", choices=sorted(SCENARIOS),
                         default="quickstart")
    journal.add_argument("--query", metavar="TEXT",
                         help="PQL query to exercise (default: canned)")
    journal.add_argument("--kind", metavar="KIND",
                         help="only events of this kind "
                              "(e.g. log.group_commit)")
    journal.add_argument("--limit", type=int, metavar="N",
                         help="only the newest N events")
    journal.add_argument("--slow-ms", type=float, metavar="MS",
                         help="slow-query threshold override in "
                              "milliseconds (0 records every query)")
    journal.add_argument("--jsonl", action="store_true",
                         help="one JSON object per line (the journal's "
                              "native dump format)")
    journal.set_defaults(func=cmd_journal)

    health = sub.add_parser(
        "health", help="SLO health verdict; exits nonzero on breach")
    health.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="quickstart")
    health.add_argument("--query", metavar="TEXT",
                        help="PQL probe query (default: canned)")
    health.add_argument("--query-repeats", type=int, default=5,
                        metavar="N",
                        help="probe-query executions feeding the "
                             "latency percentiles (default %(default)s)")
    health.add_argument("--max-p50", type=float, default=0.5,
                        metavar="S", help="query p50 SLO in seconds "
                        "(default %(default)s)")
    health.add_argument("--max-p99", type=float, default=2.0,
                        metavar="S", help="query p99 SLO in seconds "
                        "(default %(default)s)")
    health.add_argument("--max-dropped-spans", type=int, default=0,
                        metavar="N",
                        help="span ring drops allowed "
                             "(default %(default)s)")
    health.add_argument("--crashtest", metavar="FILE",
                        help="'repro crashtest --json' report to fold "
                             "into the verdict")
    health.add_argument("--json", action="store_true",
                        help="machine-readable verdict for CI")
    health.set_defaults(func=cmd_health)

    crashtest = sub.add_parser(
        "crashtest",
        help="explore every crash point and verify the WAP invariant")
    crashtest.add_argument("--workload", action="append", metavar="NAME",
                           help="workload(s) to explore (default: all)")
    crashtest.add_argument("--seed", type=int, default=0,
                           help="fault-plan seed (default %(default)s)")
    crashtest.add_argument("--json", action="store_true",
                           help="machine-readable report for CI")
    crashtest.set_defaults(func=cmd_crashtest)

    inspect = sub.add_parser("inspect",
                             help="show per-component statistics")
    inspect.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
