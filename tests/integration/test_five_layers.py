"""The paper's layering claim: 'the DPAPI enables an arbitrary number of
layers of provenance-aware applications' (section 5.2), illustrated with
its five-layer example: a PA-Python application, using a PA-Python
library, on an interpreter(-process), over PA-NFS, on a PASS server.

This test builds that stack and checks that one query walks all five
layers: output file -> library-routine invocation -> application
objects -> interpreter process -> remote file on the server's volume.
"""

from repro.apps.papython import ProvenanceTracker
from repro.core.records import Attr, ObjType
from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer
from repro.pql.engine import QueryEngine
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from repro.system import System


def test_five_layer_stack():
    clock = SimClock()
    server_sys = System.boot(hostname="server", clock=clock,
                             pass_volumes=("export",), plain_volumes=())
    server = NFSServer(server_sys, "export")
    workstation = System.boot(hostname="ws", clock=clock,
                              pass_volumes=("local",), plain_volumes=())
    client = NFSClient(workstation, server, mountpoint="/nfs")

    # Layer 5 (remote PASS storage): the raw data lives on the server.
    with server_sys.process(argv=["data-loader"]) as proc:
        fd = proc.open("/export/readings.csv", "w")
        proc.write(fd, b"3\n1\n2\n")
        proc.close(fd)

    # Layers 1-3: a PA-Python *application* calling a PA-Python *library*
    # inside an interpreter process on the workstation.
    def application(sc):
        tracker = ProvenanceTracker(sc)
        # The library layer: a wrapped module of analysis routines.
        library = tracker.wrap_module({
            "parse": lambda raw: sorted(int(x)
                                        for x in raw.decode().split()),
            "summarize": lambda xs: f"n={len(xs)} max={max(xs)}".encode(),
        })
        raw = tracker.read_file("/nfs/readings.csv")   # layer 4: PA-NFS
        parsed = library["parse"](raw)
        summary = library["summarize"](parsed)
        tracker.write_file("/nfs/summary.txt", summary)
        return 0

    workstation.register_program("/local/bin/python", application,
                                 size=1 << 20)
    workstation.run("/local/bin/python", argv=["python", "analysis.py"])

    client.sync()
    workstation.sync()
    server_sys.sync()
    graph = QueryEngine.live(workstation.databases()
                             + server_sys.databases()).graph

    summary_ref = newest_ref_by_name(graph, "/nfs/summary.txt")
    names, types = set(), set()
    for ref in ancestry_refs(graph, summary_ref):
        node = graph.node(ref)
        names.update(map(str, node.atoms.get("name", ())))
        types.update(map(str, node.atoms.get("type", ())))

    # Layer 1: application objects (the tracked values).
    assert ObjType.PYOBJECT in types
    # Layer 2: the library routines and their invocations.
    assert "parse" in names and "summarize" in names
    assert ObjType.INVOCATION in types
    # Layer 3: the interpreter process and its binary.
    assert "python" in names
    assert "/local/bin/python" in names
    assert ObjType.PROCESS in types
    # Layer 4/5: the remote input file (named at the client) whose data
    # lives on the server volume, plus the loader process server-side.
    assert "/nfs/readings.csv" in names
    assert "data-loader" in names

    # And the data content is correct end to end.
    with workstation.process() as proc:
        fd = proc.open("/nfs/summary.txt", "r")
        assert proc.read(fd) == b"n=3 max=3"
        proc.close(fd)


def test_layers_accept_and_issue_dpapi():
    """'Layers that are a substrate to higher level applications must
    export the DPAPI' -- the wrapped library both accepts DPAPI-visible
    inputs (tracked values) and issues DPAPI calls downward."""
    system = System.boot()

    def application(sc):
        tracker = ProvenanceTracker(sc)
        lower = tracker.wrap_function(lambda x: x + 1, name="lower")
        upper = tracker.wrap_function(
            lambda x: x * 2, name="upper")
        value = tracker.wrap_value(10, "seed")
        result = upper(lower(value))      # upper consumes lower's output
        tracker.write_file("/pass/result", result)
        return 0

    system.register_program("/pass/bin/app", application)
    system.run("/pass/bin/app")
    system.sync()
    db = system.database("pass")
    out_ref = system.find_by_name("/pass/result")[0]
    ancestry = ancestry_refs(system.query_engine().graph, out_ref)
    names = set()
    for ref in ancestry:
        names.update(str(v) for v in db.attribute_values(ref, Attr.NAME))
    # The chain crosses both wrapped layers and reaches the seed.
    assert {"upper", "lower", "seed"} <= names
