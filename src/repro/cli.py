"""Command-line interface to the PASSv2 reproduction.

Everything is an in-memory simulation, so the CLI builds a scenario,
then lets you query or render it::

    python -m repro.cli demo --scenario challenge \
        --query 'select A from Provenance.file as Atlas \
                 Atlas.input* as A where Atlas.name like "%atlas-x.gif"'
    python -m repro.cli demo --scenario malware --tree /pass/codec.bin
    python -m repro.cli demo --save /tmp/prov.passdb
    python -m repro.cli query --db /tmp/prov.passdb \
        'select F.name from Provenance.file as F'
    python -m repro.cli fsck --db /tmp/prov.passdb

``stats``, ``trace``, ``profile``, ``journal`` and ``health`` report on
a scenario's own telemetry (docs/OBSERVABILITY.md); ``lint`` checks the
source tree's layering and ``crashtest`` the WAP invariant under every
reachable crash (docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.errors import LogCorruption
from repro.pql.oem import OEMNode
from repro.query.helpers import newest_ref_by_name
from repro.query.report import ancestry_tree
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
    if args.save:
        from repro.storage.database import ProvenanceDatabase
        merged = ProvenanceDatabase("export")
        for db in system.databases():
            merged.insert_many(db.all_records())
        nbytes = merged.save(args.save)
        print(f"saved {len(merged)} records ({nbytes} bytes) to "
              f"{args.save}", file=sys.stderr)
    if not (args.query or args.tree or args.save):
        print("nothing asked; try --query / --tree / --save "
              "(see --help)", file=sys.stderr)
    return 0


def _load_export(command: str, path: str):
    """A saved database export, or None after one line on stderr when
    the file cannot be read or is not a valid export."""
    from repro.storage.database import ProvenanceDatabase

    try:
        return ProvenanceDatabase.load(path)
    except (OSError, LogCorruption) as exc:
        # An OSError's strerror drops the path the message repeats.
        reason = getattr(exc, "strerror", None) or exc
        print(f"{command}: {path}: {reason}", file=sys.stderr)
        return None


def cmd_query(args: argparse.Namespace) -> int:
    """Run PQL against a previously saved database export."""
    from repro.pql.engine import QueryEngine

    database = _load_export("query", args.db)
    if database is None:
        return 2
    for row in QueryEngine.live([database]).execute(args.query):
        print(_render_row(row))
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Integrity-check a saved database export and print the JSON
    report; exits 1 on violations and 2 on an unreadable export."""
    import json

    from repro.storage.fsck import fsck

    database = _load_export("fsck", args.db)
    if database is None:
        return 2
    report = fsck([database])
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.clean else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis of the source tree's layer discipline (PQL
    queries are checked by the engine's pre-pass as they run)."""
    import os

    from repro.lint import LintReport, render_text
    from repro.lint.layercheck import check_tree

    report = LintReport()
    for target in args.targets:
        if not os.path.exists(target):
            print(f"lint: no such file or directory: {target!r}",
                  file=sys.stderr)
            return 2
        if os.path.isdir(target) or target.endswith(".py"):
            try:
                report.extend(check_tree(target))
            except ValueError as exc:
                print(f"lint: {exc}", file=sys.stderr)
                return 2
        else:
            print(f"lint: skipping {target!r} (not a directory or .py "
                  "file)", file=sys.stderr)
            continue
        report.targets_checked += 1
    if not report.targets_checked:
        print("lint: nothing to check; pass paths", file=sys.stderr)
        return 2
    print(render_text(report))
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
        for name, summ in sorted(section.get("histograms", {}).items()):
            lines.append(
                f"  {name:32s}count={summ['count']} "
                f"mean={summ['mean']:.6g} p50={summ['p50']:.6g} "
                f"p99={summ['p99']:.6g}")
    return lines


def _write_or_print(text: str, out: str | None) -> None:
    """Send a command's output to ``--out FILE`` or stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text, end="")


def cmd_stats(args: argparse.Namespace) -> int:
    """Build a scenario, exercise a query, dump per-layer metrics."""
    import json

    from repro.obs.export import prometheus_text

    system = SCENARIOS[args.scenario](tracing=args.trace)
    system.query(args.query or STATS_QUERY)
    fmt = "json" if args.json else args.format
    snapshot = system.stats()
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
        _write_or_print(json.dumps(payload, indent=2, sort_keys=True),
                        args.out)
        return 0
    print(f"scenario {args.scenario!r}: simulated "
          f"t={system.elapsed():.3f}s", file=sys.stderr)
    _write_or_print("\n".join(_layer_lines(snapshot)), args.out)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Build a scenario with tracing on and dump the collected spans."""
    import json

    from repro.obs.export import chrome_trace_json

    if args.limit is not None and args.limit < 1:
        print(f"trace: --limit must be at least 1, not {args.limit}",
              file=sys.stderr)
        return 2
    system = SCENARIOS[args.scenario](tracing=True)
    system.query(args.query or STATS_QUERY)
    document = system.trace_export()
    spans = document["spans"]
    dropped = document["dropped_spans"]
    if args.limit is not None:
        spans = spans[-args.limit:]
    fmt = "json" if args.json else args.format
    if fmt == "chrome":
        _write_or_print(chrome_trace_json(spans, clock=args.clock),
                        args.out)
        return 0
    if fmt == "json":
        _write_or_print(json.dumps({"spans": spans,
                                    "dropped_spans": dropped},
                                   indent=2, sort_keys=True), args.out)
        return 0
    print(f"{len(spans)} spans (oldest first), {dropped} dropped:",
          file=sys.stderr)
    lines = []
    for span in spans:
        indent = "  " * span["depth"]
        tags = "".join(f" {k}={v}" for k, v in sorted(span["tags"].items()))
        lines.append(f"{indent}{span['name']} [{span['layer'] or '-'}] "
                     f"sim={span['sim_elapsed'] * 1e3:.3f}ms "
                     f"wall={span['wall_elapsed'] * 1e3:.3f}ms{tags}")
    _write_or_print("\n".join(lines), args.out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Span-tree profile as collapsed stacks, the input of every
    flamegraph renderer."""
    from repro.obs.export import collapsed_stacks

    system = SCENARIOS[args.scenario](tracing=True)
    system.query(args.query or STATS_QUERY)
    document = system.trace_export()
    if document["dropped_spans"]:
        print(f"warning: {document['dropped_spans']} spans dropped from "
              f"the ring; the profile undercounts", file=sys.stderr)
    _write_or_print(collapsed_stacks(document["spans"], clock=args.clock),
                    args.out)
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """Build a scenario with the journal on and print its events as
    JSONL, oldest first."""
    system = SCENARIOS[args.scenario](tracing=True, journal=True)
    system.query(args.query or STATS_QUERY)
    print(system.obs.journal.to_jsonl(), end="")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """SLO health verdict: build a scenario, probe queries, check the
    telemetry against the policy; exits nonzero on breach."""
    import json

    from repro.obs.health import evaluate_health

    crashtest = None
    if args.crashtest:
        try:
            with open(args.crashtest, "r", encoding="utf-8") as handle:
                crashtest = json.load(handle) or {}
        except (OSError, ValueError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"health: {args.crashtest}: {reason}", file=sys.stderr)
            return 2
    system = SCENARIOS[args.scenario](tracing=True, journal=True)
    for _ in range(max(1, args.query_repeats)):
        system.query(args.query or STATS_QUERY)
    verdict = evaluate_health(
        system.stats(),
        dropped_spans=system.obs.tracer.dropped_spans,
        journal_stats=system.obs.journal.stats(),
        crashtest=crashtest,
    )
    if args.json:
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(verdict.render_text())
    return 0 if verdict.ok else 1


def cmd_crashtest(args: argparse.Namespace) -> int:
    """Enumerate every reachable crash point, replay + recover each,
    verify the WAP invariant (see docs/TESTING.md) and print the JSON
    report."""
    from repro.crashlab import WORKLOADS, explore

    names = args.workload or sorted(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"crashtest: unknown workload {name!r} "
                  f"(have: {', '.join(sorted(WORKLOADS))})", file=sys.stderr)
            return 2
    report = explore(names, seed=args.seed)
    print(report.render_json())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="PASSv2 reproduction: scenarios, queries, telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a scenario and query it")
    demo.add_argument("--scenario", choices=sorted(SCENARIOS),
                      default="quickstart")
    demo.add_argument("--query", help="PQL query to run")
    demo.add_argument("--tree", metavar="NAME",
                      help="print the ancestry tree of a named object")
    demo.add_argument("--save", metavar="FILE",
                      help="export the merged provenance database")
    demo.set_defaults(func=cmd_demo)

    query = sub.add_parser("query",
                           help="run PQL against a saved database export")
    query.add_argument("--db", required=True,
                       help="database export from 'demo --save'")
    query.add_argument("query", help="PQL query text")
    query.set_defaults(func=cmd_query)

    fsck_cmd = sub.add_parser(
        "fsck", help="integrity-check a saved export (JSON report)")
    fsck_cmd.add_argument("--db", required=True)
    fsck_cmd.set_defaults(func=cmd_fsck)

    lint = sub.add_parser(
        "lint", help="static analysis of the repro tree's layer "
                     "discipline (PL2xx, PL303)")
    lint.add_argument("targets", nargs="*", metavar="PATH",
                      help="directories / .py files inside a repro "
                           "package")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too")
    lint.set_defaults(func=cmd_lint)

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
    stats.add_argument("--out", metavar="FILE",
                       help="write the output to FILE instead of stdout")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace", help="build a scenario with tracing on and dump spans")
    trace.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="quickstart")
    trace.add_argument("--query", metavar="TEXT",
                       help="PQL query to exercise (default: canned)")
    trace.add_argument("--limit", type=int, metavar="N",
                       help="only the newest N spans (N >= 1)")
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
                       help="write the output to FILE instead of stdout")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile", help="span-tree self times as collapsed stacks "
                        "(flamegraph input)")
    profile.add_argument("--scenario", choices=sorted(SCENARIOS),
                         default="quickstart")
    profile.add_argument("--query", metavar="TEXT",
                         help="PQL query to exercise (default: canned)")
    profile.add_argument("--clock", choices=("wall", "sim"),
                         default="wall",
                         help="time base (default %(default)s)")
    profile.add_argument("--out", metavar="FILE",
                         help="write output to FILE instead of stdout")
    profile.set_defaults(func=cmd_profile)

    journal = sub.add_parser(
        "journal", help="build a scenario with the event journal on "
                        "and print its events as JSONL")
    journal.add_argument("--scenario", choices=sorted(SCENARIOS),
                         default="quickstart")
    journal.add_argument("--query", metavar="TEXT",
                         help="PQL query to exercise (default: canned)")
    journal.set_defaults(func=cmd_journal)

    health = sub.add_parser(
        "health", help="SLO health verdict (limits: "
                       "repro.obs.health.SLOPolicy); exits nonzero on "
                       "breach")
    health.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="quickstart")
    health.add_argument("--query", metavar="TEXT",
                        help="PQL probe query (default: canned)")
    health.add_argument("--query-repeats", type=int, default=5,
                        metavar="N",
                        help="probe-query executions feeding the "
                             "latency percentiles (default %(default)s)")
    health.add_argument("--crashtest", metavar="FILE",
                        help="'repro crashtest' report to fold into the "
                             "verdict")
    health.add_argument("--json", action="store_true",
                        help="machine-readable verdict for CI")
    health.set_defaults(func=cmd_health)

    crashtest = sub.add_parser(
        "crashtest",
        help="explore every crash point and verify the WAP invariant "
             "(JSON report)")
    crashtest.add_argument("--workload", action="append", metavar="NAME",
                           help="workload(s) to explore (default: all)")
    crashtest.add_argument("--seed", type=int, default=0,
                           help="fault-plan seed (default %(default)s)")
    crashtest.set_defaults(func=cmd_crashtest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
