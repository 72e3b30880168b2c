#!/usr/bin/env python3
"""PA-NFS in action: shared storage, crash-orphaned provenance, branching.

Three vignettes on one exported PASS volume:

1. two workstations collaborate through the server, and a query on the
   *server* reconstructs which client process produced which file;
2. a client dies mid-transaction -- the server's Waldo orphans the
   half-shipped bundle instead of ingesting it;
3. close-to-open consistency lets both clients version the same file
   from the same base -- the server detects the branch.

Run:  python examples/nfs_collaboration.py
"""

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer, Network
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from repro.system import System


def boot():
    clock = SimClock()
    server_sys = System.boot(hostname="fileserver", clock=clock,
                             pass_volumes=("export",), plain_volumes=())
    server = NFSServer(server_sys, "export")
    clients = []
    for index, host in enumerate(("alice-ws", "bob-ws")):
        client_sys = System.boot(hostname=host, clock=clock,
                                 pass_volumes=(f"local{index}",),
                                 plain_volumes=())
        client = NFSClient(client_sys, server,
                           Network(clock, client_sys.kernel.params.net),
                           mountpoint="/shared", name=f"nfs-{host}")
        clients.append((client_sys, client))
    return server_sys, server, clients


def vignette_collaboration(server_sys, server, clients):
    print("=== 1. Collaboration through the export ===")
    (alice_sys, alice), (bob_sys, bob) = clients
    with alice_sys.process(argv=["alice-simulator"]) as proc:
        fd = proc.open("/shared/model-params.txt", "w")
        proc.write(fd, b"alpha=0.3 beta=7\n")
        proc.close(fd)
    bob.revalidate("/shared/model-params.txt")
    with bob_sys.process(argv=["bob-runner"]) as proc:
        fd = proc.open("/shared/model-params.txt", "r")
        params = proc.read(fd)
        proc.close(fd)
        out = proc.open("/shared/model-output.dat", "w")
        proc.write(out, b"RESULT(" + params.strip() + b")")
        proc.close(out)
    alice.sync()
    bob.sync()
    server_sys.sync()
    graph = server_sys.query_engine().graph
    out_ref = newest_ref_by_name(graph, "/shared/model-output.dat")
    names = {str(name) for ref in ancestry_refs(graph, out_ref)
             for name in graph.node(ref).atoms.get("name", ())}
    print(f"  server-side ancestry of model-output.dat: {sorted(names)}")
    assert "alice-simulator" in names
    assert "bob-runner" in names
    print("  both clients' processes are visible to the server.\n")


def vignette_orphaned_txn(server_sys, server):
    print("=== 2. A client dies mid-transaction ===")
    subject = ObjectRef(server.volume.pnodes.allocate(), 0)
    txn = server.op_begintxn(subject)
    server.op_passprov(txn, [
        ProvenanceRecord(subject, Attr.NAME, "half-shipped-dataset"),
    ])
    # ... the client crashes here: no ENDTXN ever arrives.
    server.volume.lasagna.log.flush()
    server.volume.lasagna.log.rotate()
    waldo = server_sys.tier.waldo("export")
    waldo.drain()
    in_db = {r.value for r in waldo.database.all_records()
             if r.attr == Attr.NAME}
    print(f"  'half-shipped-dataset' in database: "
          f"{'half-shipped-dataset' in in_db}")
    print(f"  orphaned records held aside: {waldo.orphaned}")
    assert "half-shipped-dataset" not in in_db
    assert waldo.orphaned
    print("  the transaction framing kept the database clean.\n")


def vignette_branching(server_sys, server, clients):
    print("=== 3. Close-to-open version branching ===")
    (alice_sys, alice), (bob_sys, bob) = clients
    with alice_sys.process() as proc:
        fd = proc.open("/shared/notes.txt", "w")
        proc.write(fd, b"base notes")
        proc.close(fd)
    # Both open the same version before either writes.
    alice_shell = alice_sys.kernel.spawn_shell(["alice-editor"])
    bob_shell = bob_sys.kernel.spawn_shell(["bob-editor"])
    fd_a = alice_shell.open("/shared/notes.txt", "r+")
    fd_b = bob_shell.open("/shared/notes.txt", "r+")
    alice_shell.read(fd_a)
    bob_shell.read(fd_b)
    alice_shell.write(fd_a, b"alice's edits")
    bob_shell.write(fd_b, b"bob's edits")
    alice_shell.close(fd_a)
    bob_shell.close(fd_b)
    alice_sys.kernel.reap(alice_shell.proc, 0)
    bob_sys.kernel.reap(bob_shell.proc, 0)
    alice.sync()
    bob.sync()
    server_sys.sync()
    db = server_sys.database("export")
    branches = [r for r in db.all_records() if r.attr == Attr.BRANCH_OF]
    print(f"  BRANCH_OF records at the server: {len(branches)}")
    assert branches
    print("  the server noticed two independent copies of one version\n"
          "  (the paper: tolerable under NFS's weak consistency).")


def main() -> None:
    server_sys, server, clients = boot()
    vignette_collaboration(server_sys, server, clients)
    vignette_orphaned_txn(server_sys, server)
    vignette_branching(server_sys, server, clients)


if __name__ == "__main__":
    main()
