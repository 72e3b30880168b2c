"""Table 1: the provenance record types each layer contributes.

Runs each provenance-aware component against a live system and
enumerates the record types it actually produced, regenerating the
paper's table::

    PA-NFS:    BEGINTXN, ENDTXN, FREEZE
    PA-Kepler: TYPE (OPERATOR), NAME, PARAMS, INPUT
    PA-links:  TYPE (SESSION), VISITED_URL, FILE_URL, CURRENT_URL, INPUT
    PA-Python: TYPE (e.g. FUNCTION), NAME, INPUT
"""

from __future__ import annotations

import pytest

from repro.core.records import Attr, ObjType
from repro.system import System


def _attrs_for_type(db, obj_type):
    """Attributes recorded on objects of one TYPE."""
    out = set()
    for ref in db.subjects_with_attr(Attr.TYPE):
        if obj_type in db.attribute_values(ref, Attr.TYPE):
            for record in db.records_of(ref.pnode):
                out.add(record.attr)
    return out


def _run_panfs():
    from repro.kernel.clock import SimClock
    from repro.nfs import NFSClient, NFSServer, Network

    clock = SimClock()
    server_sys = System.boot(provenance=True, hostname="server",
                             clock=clock, pass_volumes=("export",),
                             plain_volumes=())
    server = NFSServer(server_sys, "export")
    client_sys = System.boot(provenance=True, hostname="client",
                             clock=clock, pass_volumes=("local",),
                             plain_volumes=())
    client = NFSClient(client_sys, server)
    with client_sys.process() as proc:
        # Enough distinct inputs to overflow one wire block -> txn ops,
        # plus a read-modify-write -> FREEZE record.
        for index in range(2600):
            fd = proc.open(f"/nfs/in{index}", "w")
            proc.write(fd, b"x")
            proc.close(fd)
    with client_sys.process() as proc:
        for index in range(2600):
            fd = proc.open(f"/nfs/in{index}", "r")
            proc.read(fd)
            proc.close(fd)
        fd = proc.open("/nfs/out", "w")
        proc.write(fd, b"agg")
        proc.close(fd)
        fd = proc.open("/nfs/out", "r+")
        proc.read(fd)
        proc.write(fd, b"rmw")
        proc.close(fd)
    # FREEZE/BEGINTXN/ENDTXN live in the log stream; BEGINTXN/ENDTXN are
    # framing that Waldo strips from the database, so collect them from
    # the raw segments *before* Waldo drains and removes the log files.
    client.sync()
    server.volume.lasagna.log.flush()
    log_attrs = set()
    for segment in server.volume.lasagna.log.all_segments():
        for record in segment.records:
            log_attrs.add(record.attr)
    server_sys.sync()
    db_attrs = {r.attr for r in server_sys.database("export").all_records()}
    return db_attrs | log_attrs, server.op_counts


def _run_kepler():
    from repro.apps.kepler import (
        FileSink,
        FileSource,
        Transformer,
        Workflow,
        run_workflow,
    )
    from tests.conftest import write_file

    system = System.boot()
    write_file(system, "/pass/in", b"data")
    wf = Workflow("t1")
    wf.add(FileSource("src", path="/pass/in"))
    wf.add(Transformer("xf", fn=lambda data: data))
    wf.add(FileSink("sink", path="/pass/out"))
    wf.connect("src", "out", "xf", "in")
    wf.connect("xf", "out", "sink", "in")
    run_workflow(system, wf, recording="pass")
    system.sync()
    return _attrs_for_type(system.database("pass"), ObjType.OPERATOR)


def _run_links():
    from repro.apps.links import Browser, Web

    system = System.boot()
    web = Web()
    web.publish("http://site/", links=["http://site/file.bin"])
    web.publish("http://site/file.bin", content=b"payload")

    def program(sc):
        browser = Browser(sc, web)
        session = browser.new_session()
        browser.visit(session, "http://site/")
        browser.download(session, "http://site/file.bin", "/pass/file.bin")
        return 0

    system.register_program("/pass/bin/links", program)
    system.run("/pass/bin/links")
    system.sync()
    db = system.database("pass")
    session_attrs = _attrs_for_type(db, ObjType.SESSION)
    file_ref = system.find_by_name("/pass/file.bin")[0]
    file_attrs = {r.attr for r in db.records_of(file_ref.pnode)}
    return session_attrs, file_attrs


def _run_papython():
    from repro.apps.papython import ProvenanceTracker

    system = System.boot()

    def program(sc):
        tracker = ProvenanceTracker(sc)
        fn = tracker.wrap_function(lambda x: x, name="identity")
        doc = tracker.read_file("/pass/in")
        tracker.write_file("/pass/out", fn(doc))
        return 0

    from tests.conftest import write_file
    write_file(system, "/pass/in", b"data")
    system.register_program("/pass/bin/app", program)
    system.run("/pass/bin/app")
    system.sync()
    db = system.database("pass")
    return (_attrs_for_type(db, ObjType.FUNCTION)
            | _attrs_for_type(db, ObjType.INVOCATION)
            | _attrs_for_type(db, ObjType.PYOBJECT))


@pytest.mark.benchmark(group="table1-records")
def test_pa_nfs_record_types(benchmark):
    attrs, op_counts = benchmark.pedantic(_run_panfs, rounds=1,
                                          iterations=1)
    print("\nPA-NFS record types:",
          sorted(attrs & {Attr.BEGINTXN, Attr.ENDTXN, Attr.FREEZE}))
    assert Attr.BEGINTXN in attrs
    assert Attr.ENDTXN in attrs
    assert Attr.FREEZE in attrs
    assert op_counts["PASSPROV"] > 0


@pytest.mark.benchmark(group="table1-records")
def test_pa_kepler_record_types(benchmark):
    attrs = benchmark.pedantic(_run_kepler, rounds=1, iterations=1)
    print("\nPA-Kepler operator record types:", sorted(attrs))
    assert {Attr.TYPE, Attr.NAME, Attr.PARAMS, Attr.INPUT} <= attrs


@pytest.mark.benchmark(group="table1-records")
def test_pa_links_record_types(benchmark):
    session_attrs, file_attrs = benchmark.pedantic(_run_links, rounds=1,
                                                   iterations=1)
    print("\nPA-links session record types:", sorted(session_attrs))
    print("PA-links downloaded-file record types:", sorted(file_attrs))
    assert {Attr.TYPE, Attr.VISITED_URL} <= session_attrs
    assert {Attr.FILE_URL, Attr.CURRENT_URL, Attr.INPUT} <= file_attrs


@pytest.mark.benchmark(group="table1-records")
def test_pa_python_record_types(benchmark):
    attrs = benchmark.pedantic(_run_papython, rounds=1, iterations=1)
    print("\nPA-Python record types:", sorted(attrs))
    assert {Attr.TYPE, Attr.NAME, Attr.INPUT} <= attrs
