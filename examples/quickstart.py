#!/usr/bin/env python3
"""Quickstart: boot a provenance-aware machine, run a pipeline, query it.

Walks the seven PASSv2 components (paper Figure 2) with a real write,
then answers the three classic provenance questions: how was this object
created, what is its full ancestry, and what descends from an input.

Run:  python examples/quickstart.py
"""

from repro.core.records import Attr
from repro.query.helpers import ancestry_refs, descendant_refs, describe
from repro.system import System


def main() -> None:
    # 1. Boot: a PASS-enabled volume at /pass, a plain one at /scratch.
    system = System.boot()
    print(f"booted: {system}")

    # 2. Run a two-stage shell pipeline: generate | transform > report.
    def generate(sc):
        fd = sc.open("/pass/measurements.csv", "w")
        sc.write(fd, b"sensor,reading\na,10\nb,20\nc,30\n")
        sc.close(fd)
        sc.write(sc.stdout, b"generated")
        return 0

    def transform(sc):
        sc.read(sc.stdin)                     # wait for the generator
        fd = sc.open("/pass/measurements.csv", "r")
        rows = sc.read(fd).decode().splitlines()[1:]
        sc.close(fd)
        total = sum(int(row.split(",")[1]) for row in rows)
        out = sc.open("/pass/report.txt", "w")
        sc.write(out, f"total reading: {total}\n".encode())
        sc.close(out)
        return 0

    system.register_program("/pass/bin/generate", generate)
    system.register_program("/pass/bin/transform", transform)
    with system.process(argv=["shell"]) as shell:
        rfd, wfd = shell.pipe()
        shell.spawn("/pass/bin/generate", stdout=wfd)
        shell.close(wfd)
        shell.spawn("/pass/bin/transform", stdin=rfd)
        shell.close(rfd)

    # 3. Flush the provenance pipeline: Lasagna log -> Waldo -> database.
    inserted = system.sync()
    print(f"Waldo ingested {inserted} provenance records")
    kernel = system.kernel
    print(f"analyzer: {kernel.analyzer.records_out} records admitted, "
          f"{kernel.analyzer.duplicates_dropped} duplicates dropped, "
          f"{kernel.analyzer.freezes} freezes")

    # 4. Query with PQL (section 5.7): the full ancestry of the report.
    rows = system.query("""
        select Ancestor
        from Provenance.file as Report
             Report.input* as Ancestor
        where Report.name = "/pass/report.txt"
    """)
    print("\nancestry of /pass/report.txt (PQL):")
    for node in rows:
        print(f"  {node.ref}  type={node.type}  name={node.name}")

    # 5. The same via the helper API, plus a descendant (taint) query.
    graph = system.query_engine().graph
    report_ref = system.find_by_name("/pass/report.txt")[0]
    csv_ref = system.find_by_name("/pass/measurements.csv")[0]
    print(f"\nancestors of report: {len(ancestry_refs(graph, report_ref))}")
    print(f"descendants of measurements.csv: "
          f"{len(descendant_refs(graph, csv_ref))}")

    # 6. Describe one object: everything the graph holds about it.
    info = describe(graph, report_ref)
    print("\nrecords describing the report:")
    for attr, values in sorted(info["attrs"].items()):
        if attr != Attr.MD5:
            print(f"  {attr} = {values}")

    print(f"\nsimulated elapsed time: {system.elapsed():.4f}s")


if __name__ == "__main__":
    main()
