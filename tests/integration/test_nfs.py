"""PA-NFS integration tests (paper section 6.1)."""

import pytest

from repro.core.errors import StalePnodeVersion
from repro.core.records import Attr, ObjType
from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer, Network
from repro.pql.engine import QueryEngine
from repro.query.helpers import ancestry_refs, newest_ref_by_name
from repro.system import System


def make_env(provenance=True, clients=1, export="export",
             server_faults=None, net_faults=None):
    """One server exporting a PASS volume + N client machines.

    ``server_faults`` arms a FaultInjector on the server machine,
    ``net_faults`` on every client's network (crashlab harnesses).
    """
    clock = SimClock()
    server_sys = System.boot(provenance=provenance, hostname="server",
                             clock=clock, pass_volumes=(export,),
                             plain_volumes=(), faults=server_faults)
    server = NFSServer(server_sys, export)
    out = []
    for index in range(clients):
        client_sys = System.boot(
            provenance=provenance, hostname=f"client{index}", clock=clock,
            pass_volumes=(f"local{index}",) if provenance else (),
            plain_volumes=(f"scratch{index}",),
        )
        network = Network(clock, client_sys.kernel.params.net,
                          faults=net_faults)
        client = NFSClient(client_sys, server, network,
                           mountpoint="/nfs", name=f"nfs{index}")
        out.append((client_sys, client))
    return server_sys, server, out


def sync_all(server_sys, clients):
    for client_sys, client in clients:
        client.sync()
    return server_sys.sync()


class TestDataPath:
    def test_write_read_roundtrip(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/remote.txt", "w")
            proc.write(fd, b"over the wire")
            proc.close(fd)
            fd = proc.open("/nfs/remote.txt", "r")
            assert proc.read(fd) == b"over the wire"
            proc.close(fd)

    def test_data_lands_on_server_volume(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/f", "w")
            proc.write(fd, b"payload")
            proc.close(fd)
        inode = server_sys.kernel.vfs.resolve("/export/f")
        assert inode.data.read(0, 7) == b"payload"

    def test_network_charged(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        t0 = client_sys.kernel.clock.now
        with client_sys.process() as proc:
            fd = proc.open("/nfs/f", "w")
            proc.write(fd, b"x" * 10000)
            proc.close(fd)
        assert client.network.calls > 0
        assert client_sys.kernel.clock.breakdown()["network"] > 0
        assert client_sys.kernel.clock.now > t0

    def test_metadata_ops_propagate(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            proc.mkdir("/nfs/dir")
            fd = proc.open("/nfs/dir/a", "w")
            proc.write(fd, b"1")
            proc.close(fd)
            proc.rename("/nfs/dir/a", "/nfs/dir/b")
            assert proc.readdir("/nfs/dir") == ["b"]
        assert server_sys.kernel.vfs.exists("/export/dir/b")
        assert not server_sys.kernel.vfs.exists("/export/dir/a")

    def test_unlink_propagates(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/gone", "w")
            proc.write(fd, b"1")
            proc.close(fd)
            proc.unlink("/nfs/gone")
        assert not server_sys.kernel.vfs.exists("/export/gone")

    def test_lazy_lookup_of_preexisting_files(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        # File created directly on the server before the client looks.
        with server_sys.process() as proc:
            fd = proc.open("/export/preexisting", "w")
            proc.write(fd, b"server-side")
            proc.close(fd)
        with client_sys.process() as proc:
            fd = proc.open("/nfs/preexisting", "r")
            assert proc.read(fd) == b"server-side"
            proc.close(fd)

    def test_baseline_uses_plain_ops(self):
        server_sys, server, clients = make_env(provenance=False)
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/f", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            fd = proc.open("/nfs/f", "r")
            proc.read(fd)
            proc.close(fd)
        assert server.op_counts["WRITE"] > 0
        assert server.op_counts["READ"] > 0
        assert server.op_counts["PASSWRITE"] == 0
        assert server.op_counts["PASSREAD"] == 0


class TestProvenanceOverTheWire:
    def test_client_process_ancestry_reaches_server_db(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process(argv=["remote-writer"]) as proc:
            fd = proc.open("/nfs/out", "w")
            proc.write(fd, b"data")
            proc.close(fd)
        sync_all(server_sys, clients)
        db = server_sys.database("export")
        refs = server_sys.find_by_name("/nfs/out")
        assert refs
        ancestors = ancestry_refs(server_sys.query_engine().graph, refs[0])
        names = set()
        for ref in ancestors:
            names.update(db.attribute_values(ref, Attr.NAME))
        assert "remote-writer" in names

    def test_passread_passwrite_ops_used(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/f", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            fd = proc.open("/nfs/f", "r")
            proc.read(fd)
            proc.close(fd)
        assert server.op_counts["PASSWRITE"] > 0
        assert server.op_counts["PASSREAD"] > 0

    def test_large_bundle_goes_through_txn(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        # Generate > 64 KB of provenance: many distinct input files read
        # by one process whose cached ancestry flushes with one write.
        count = 2800
        with client_sys.process(argv=["reader"]) as proc:
            for index in range(count):
                fd = proc.open(f"/nfs/in-{index}", "w")
                proc.write(fd, b"1")
                proc.close(fd)
        with client_sys.process(argv=["aggregator"]) as proc:
            for index in range(count):
                fd = proc.open(f"/nfs/in-{index}", "r")
                proc.read(fd)
                proc.close(fd)
            out = proc.open("/nfs/combined", "w")
            proc.write(out, b"all")
            proc.close(out)
        assert server.op_counts["BEGINTXN"] > 0
        assert server.op_counts["PASSPROV"] > 0

    def test_freeze_record_applied_at_server(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/v", "w")
            proc.write(fd, b"v0")
            proc.close(fd)
            fd = proc.open("/nfs/v", "r+")
            proc.read(fd)
            proc.write(fd, b"v1")        # freeze -> FREEZE record
            proc.close(fd)
        server_inode = server_sys.kernel.vfs.resolve("/export/v")
        assert server_inode.version >= 1
        sync_all(server_sys, clients)
        db = server_sys.database("export")
        freezes = [r for r in db.all_records() if r.attr == Attr.FREEZE]
        assert freezes

    def test_version_bump_mints_a_new_ref(self):
        """Another client's write bumps the version a proxy revalidates
        to (``max(...)`` on the field): the next ``ref()`` is a new
        instance, and reused from then on."""
        server_sys, server, clients = make_env(clients=2)
        (writer_sys, _), (reader_sys, reader) = clients
        with writer_sys.process() as proc:
            fd = proc.open("/nfs/v", "w")
            proc.write(fd, b"v0")
            proc.close(fd)
        proxy = reader_sys.kernel.vfs.resolve("/nfs/v")
        before = proxy.ref()
        assert proxy.ref() is before
        with writer_sys.process() as proc:
            fd = proc.open("/nfs/v", "r+")
            proc.read(fd)
            proc.write(fd, b"v1")
            proc.close(fd)
        reader.revalidate("/nfs/v")
        after = proxy.ref()
        assert after.version > before.version
        assert after is not before and proxy.ref() is after

    def test_cross_server_ancestry(self):
        """The Figure 1 shape: read input from one server, write output
        to another; merged databases answer the full ancestry."""
        clock = SimClock()
        serverA_sys = System.boot(provenance=True, hostname="sA",
                                  clock=clock, pass_volumes=("expA",),
                                  plain_volumes=())
        serverB_sys = System.boot(provenance=True, hostname="sB",
                                  clock=clock, pass_volumes=("expB",),
                                  plain_volumes=())
        serverA = NFSServer(serverA_sys, "expA")
        serverB = NFSServer(serverB_sys, "expB")
        client_sys = System.boot(provenance=True, hostname="client",
                                 clock=clock, pass_volumes=("local",),
                                 plain_volumes=())
        clientA = NFSClient(client_sys, serverA, mountpoint="/inputs",
                            name="nfsA")
        clientB = NFSClient(client_sys, serverB, mountpoint="/outputs",
                            name="nfsB")
        with client_sys.process(argv=["seed"]) as proc:
            fd = proc.open("/inputs/raw", "w")
            proc.write(fd, b"input-data")
            proc.close(fd)
        with client_sys.process(argv=["transform"]) as proc:
            fd = proc.open("/inputs/raw", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/outputs/result", "w")
            proc.write(out, data.upper())
            proc.close(out)
        clientA.sync()
        clientB.sync()
        serverA_sys.sync()
        serverB_sys.sync()
        graph = QueryEngine.live(serverA_sys.databases()
                                 + serverB_sys.databases()).graph
        out_ref = newest_ref_by_name(graph, "/outputs/result")
        names = {name for ref in ancestry_refs(graph, out_ref)
                 for name in graph.node(ref).atoms.get("name", ())}
        assert "/inputs/raw" in names
        assert "transform" in names


class TestTransactionsAndCrashes:
    def test_client_crash_orphans_half_sent_txn(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        from repro.core.pnode import ObjectRef
        from repro.core.records import ProvenanceRecord
        subject = ObjectRef(server.volume.pnodes.allocate(), 0)
        txn = server.op_begintxn(subject)
        server.op_passprov(txn, [
            ProvenanceRecord(subject, Attr.NAME, "half-sent-nfs"),
        ])
        # Client dies here: no ENDTXN ever arrives.  Force what is
        # buffered to disk, then let Waldo look.
        server.volume.lasagna.log.flush()
        server.volume.lasagna.log.rotate()
        server_sys.tier.waldo("export").drain()
        db = server_sys.database("export")
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert "half-sent-nfs" not in names
        assert server_sys.tier.waldo("export").orphaned == 1

    def test_mkobj_survives_server_restart(self):
        """'The pnode is just a number': after a server crash the client
        keeps using it, and reviveobj revalidates without recovery."""
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        obj = client.remote_mkobj()
        server.crash()
        server.restart()
        revived = client.remote_reviveobj(obj.pnode, 0)
        assert revived.pnode == obj.pnode

    def test_reviveobj_rejects_unknown_pnode(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        from repro.core.pnode import make_pnode
        bogus = make_pnode(server.volume.volume_id, 999999)
        with pytest.raises(StalePnodeVersion):
            client.remote_reviveobj(bogus, 0)

    def test_remote_mkobj_provenance_routes_to_export(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        obj = client.remote_mkobj()
        analyzer = client_sys.kernel.analyzer
        from repro.core.analyzer import ProtoRecord
        analyzer.submit(ProtoRecord(obj, Attr.TYPE, ObjType.SESSION))
        analyzer.submit(ProtoRecord(obj, Attr.NAME, "remote-session"))
        sync_all(server_sys, clients)
        db = server_sys.database("export")
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert "remote-session" in names


class TestVersionBranching:
    def test_two_clients_branch_detected(self):
        """Close-to-open consistency lets two clients freeze from the
        same base version; the server notes the branch."""
        server_sys, server, clients = make_env(clients=2)
        (sysA, clientA), (sysB, clientB) = clients
        with sysA.process() as proc:
            fd = proc.open("/nfs/shared", "w")
            proc.write(fd, b"base")
            proc.close(fd)
        # Both clients open the same version *before* either writes
        # (close-to-open allows this), then each read-modify-writes:
        # both freeze version 0 -> 1 independently.
        procA = sysA.kernel.spawn_shell(["editorA"])
        procB = sysB.kernel.spawn_shell(["editorB"])
        fdA = procA.open("/nfs/shared", "r+")
        fdB = procB.open("/nfs/shared", "r+")
        procA.read(fdA)
        procB.read(fdB)
        procA.write(fdA, b"from-A")
        procB.write(fdB, b"from-B")
        procA.close(fdA)
        procB.close(fdB)
        sysA.kernel.reap(procA.proc, 0)
        sysB.kernel.reap(procB.proc, 0)
        sync_all(server_sys, clients)
        db = server_sys.database("export")
        branches = [r for r in db.all_records() if r.attr == Attr.BRANCH_OF]
        assert branches
