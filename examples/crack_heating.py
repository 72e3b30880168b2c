#!/usr/bin/env python3
"""The paper's section 3.3 PA-Python use cases: thermography analysis.

The Iowa State scenario: a data-acquisition system wrote XML experiment
logs; an analysis script reads *every* log to decide which to use, then
plots crack heating against crack length for one stress classification.

Use case 1 (data origin): PASS alone blames the plot on all the XML
files (the script read them all); PA-Python identifies the documents
actually *used*, and the layering ties those documents back to their
source files.

Use case 2 (process validation): a library upgrade introduced a bug in
the calculation routine.  Which result files are suspect?  Only outputs
descended from BOTH the new library version (a PASS-layer fact) and the
calculation routine (a PA-Python-layer fact).

Run:  python examples/crack_heating.py
"""

from repro.query.helpers import ancestry_refs
from repro.system import System
from repro.workloads.thermography import (
    buggy_crack_heating_curve,
    generate_logs,
    run_analysis,
)


def write_file(system: System, path: str, data: bytes) -> None:
    """Create a file (with parent directories) from a helper process."""
    with system.process() as proc:
        parts = path.strip("/").split("/")[:-1]
        prefix = ""
        for part in parts:
            prefix += "/" + part
            if not proc.exists(prefix):
                proc.mkdir(prefix)
        fd = proc.open(path, "w")
        proc.write(fd, data)
        proc.close(fd)


def names_types(graph, refs):
    names, types = set(), set()
    for ref in refs:
        node = graph.node(ref)
        names.update(map(str, node.atoms.get("name", ())))
        types.update(map(str, node.atoms.get("type", ())))
    return names, types


def main() -> None:
    system = System.boot()

    print("Generating XML experiment logs (the data-acquisition system)...")
    generate_logs(system, "/pass/thermo", experiments=24, specimens=6)

    print("Use case 1: which XML documents fed the 'high stress' plot?")
    stats = run_analysis(system, "/pass/thermo", "/pass/plot-high.dat",
                         stress_class="high")
    system.sync()
    print(f"  the script read {stats['total']} XML files, "
          f"used {stats['used']}")

    graph = system.query_engine().graph
    plot = system.find_by_name("/pass/plot-high.dat")[0]
    names, types = names_types(graph, ancestry_refs(graph, plot))

    xml_ancestors = sorted(name for name in names
                           if name.endswith(".xml"))
    print(f"  PASS layer alone would blame all "
          f"{len(xml_ancestors)} XML inputs the process read")

    # The layered answer: the raw XML documents are exactly three hops
    # above the curve invocation (parsed result -> parse invocation ->
    # raw document), and they are the PYOBJECTs at that depth.
    used_docs = system.query("""
        select Doc.name
        from Provenance.invocation as Inv
             Inv.input{3} as Doc
        where Inv.name = "crack_heating#%d"
              and Doc.type = "PYOBJECT"
              and Doc.name like "%%.xml"
    """ % (stats["total"] + 1))
    used_docs = sorted(str(doc) for doc in used_docs)
    print(f"  PA-Python layer: exactly {len(used_docs)} documents were "
          f"used:")
    for name in used_docs[:5]:
        print(f"    {name}")
    if len(used_docs) > 5:
        print(f"    ... and {len(used_docs) - 5} more")
    assert len(used_docs) == stats["used"] < stats["total"]

    print("\nUse case 2: the library upgrade introduced a bug -- which "
          "plots are suspect?")
    write_file(system, "/pass/lib/calcroutines-1.0.py", b"# v1.0 good")
    write_file(system, "/pass/lib/calcroutines-2.0.py", b"# v2.0 BUGGY")
    run_analysis(system, "/pass/thermo", "/pass/plot-before.dat",
                 library_path="/pass/lib/calcroutines-1.0.py")
    run_analysis(system, "/pass/thermo", "/pass/plot-after.dat",
                 calc=buggy_crack_heating_curve,
                 library_path="/pass/lib/calcroutines-2.0.py")
    system.sync()

    suspects = []
    for plot_name in ("/pass/plot-before.dat", "/pass/plot-after.dat"):
        ref = system.find_by_name(plot_name)[0]
        names, types = names_types(graph, ancestry_refs(graph, ref))
        from_new_library = "/pass/lib/calcroutines-2.0.py" in names
        through_calc_routine = "crack_heating" in names
        verdict = (from_new_library and through_calc_routine)
        print(f"  {plot_name}: new library={from_new_library}, "
              f"calc routine={through_calc_routine} -> "
              f"{'SUSPECT' if verdict else 'ok'}")
        if verdict:
            suspects.append(plot_name)
    assert suspects == ["/pass/plot-after.dat"]
    print("\nOnly the post-upgrade plot descends from both the new "
          "library and the calculation routine -- neither layer alone "
          "could say that.")


if __name__ == "__main__":
    main()
