#!/usr/bin/env python3
"""The paper's Figure 1 / section 3.1 scenario, end to end.

A workstation runs the First Provenance Challenge workflow under
PA-Kepler, reading inputs from one PA-NFS server and writing the atlas
images to a second.  Between Monday's and Wednesday's runs a colleague
silently modifies an input *directly on the input server* -- invisible
to the workflow engine.  Wednesday's output differs, and only the
*integrated* (three-layer) provenance can explain why:

* Kepler alone: both runs look identical (same operators, parameters);
* PASS alone: the output depends on "some files", but the processing
  stages connecting the changed input to the changed output are opaque;
* layered: the ancestry diff names the exact input version that changed.

Run:  python examples/anomaly_detection.py
"""

from repro.apps.kepler.challenge import (
    build_challenge,
    ensure_dirs,
    generate_inputs,
)
from repro.apps.kepler.director import run_workflow
from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer
from repro.pql.engine import QueryEngine
from repro.query.helpers import newest_ref_by_name, provenance_diff
from repro.system import System


def run_challenge(workstation, tag):
    workflow = build_challenge("/inputs/data", f"/local/work-{tag}",
                               "/outputs")
    ensure_dirs(workstation, f"/local/work-{tag}")
    director = run_workflow(workstation, workflow, recording="pass",
                            engine_path="/local/bin/kepler")
    return director


def read_atlas(workstation):
    with workstation.process() as proc:
        fd = proc.open("/outputs/atlas-x.gif", "r")
        data = proc.read(fd)
        proc.close(fd)
    return data


def sync_everything(workstation, clients, servers):
    for client in clients:
        client.sync()
    workstation.sync()
    for server_sys in servers:
        server_sys.sync()


def main() -> None:
    # The Figure 1 topology: workstation + two NFS servers, one clock.
    clock = SimClock()
    input_server_sys = System.boot(hostname="input-server", clock=clock,
                                   pass_volumes=("expin",),
                                   plain_volumes=())
    output_server_sys = System.boot(hostname="output-server", clock=clock,
                                    pass_volumes=("expout",),
                                    plain_volumes=())
    workstation = System.boot(hostname="workstation", clock=clock,
                              pass_volumes=("local",), plain_volumes=())
    in_client = NFSClient(workstation, NFSServer(input_server_sys, "expin"),
                          mountpoint="/inputs", name="nfs-in")
    out_client = NFSClient(workstation,
                           NFSServer(output_server_sys, "expout"),
                           mountpoint="/outputs", name="nfs-out")
    clients = [in_client, out_client]
    servers = [input_server_sys, output_server_sys]

    ensure_dirs(workstation, "/inputs/data")
    generate_inputs(workstation, "/inputs/data")

    print("Monday: running the Provenance Challenge workflow...")
    run_challenge(workstation, "monday")
    monday_atlas = read_atlas(workstation)
    sync_everything(workstation, clients, servers)
    # One live graph over all three machines' databases: later syncs
    # splice Wednesday's records into it.
    graph = QueryEngine.live(workstation.databases()
                             + input_server_sys.databases()
                             + output_server_sys.databases()).graph
    monday_ref = newest_ref_by_name(graph, "/outputs/atlas-x.gif")

    print("Tuesday: a colleague quietly modifies anatomy2.img on the "
          "input server...")
    with input_server_sys.process(argv=["colleague-edit"]) as proc:
        fd = proc.open("/expin/data/anatomy2.img", "r+")
        proc.read(fd)
        proc.write(fd, b"RECALIBRATED-SENSOR-DATA" * 40)
        proc.close(fd)

    print("Wednesday: running the workflow again...")
    in_client.revalidate("/inputs/data/anatomy2.img")
    run_challenge(workstation, "wednesday")
    wednesday_atlas = read_atlas(workstation)
    sync_everything(workstation, clients, servers)
    wednesday_ref = newest_ref_by_name(graph, "/outputs/atlas-x.gif")

    assert monday_atlas != wednesday_atlas
    print("\nThe outputs differ!  Why?\n")

    diff = provenance_diff(graph, monday_ref, wednesday_ref)

    def names(refs):
        found = {}
        for ref in refs:
            for name in graph.node(ref).atoms.get("name", ()):
                found.setdefault(str(name), set()).add(ref.version)
        return found

    print("Ancestors only in Wednesday's run:")
    culprits = []
    for name, versions in sorted(names(diff["only_right"]).items()):
        marker = ""
        if "anatomy" in name and "/expin" in name or "/inputs" in name:
            if "anatomy" in name:
                marker = "   <-- the modified input!"
                culprits.append(name)
        print(f"  {name} (versions {sorted(versions)}){marker}")
    print(f"\nShared ancestry: {len(diff['common'])} objects "
          f"(the unchanged inputs, reference image, binaries...)")
    assert any("anatomy2" in name for name in culprits)
    print("\nThe layered provenance pinpointed the silently modified "
          "input that single-layer provenance could not.")


if __name__ == "__main__":
    main()
