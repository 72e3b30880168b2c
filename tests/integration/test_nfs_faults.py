"""PA-NFS fault injection through the real client path."""

import pytest

from repro.core.errors import (
    IsADirectory,
    NetworkPartition,
    NotADirectory,
    StaleHandle,
)
from repro.core.records import Attr
from tests.integration.test_nfs import make_env


class TestPartition:
    def test_partitioned_client_cannot_write(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        client.network.partition()
        with pytest.raises(NetworkPartition):
            with client_sys.process() as proc:
                fd = proc.open("/nfs/f", "w")
                proc.write(fd, b"x")

    def test_heal_restores_service(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        client.network.partition()
        client.network.heal()
        with client_sys.process() as proc:
            fd = proc.open("/nfs/f", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        assert server_sys.kernel.vfs.exists("/export/f")


class TestClientCrashMidWork:
    def test_buffered_provenance_lost_but_no_garbage(self):
        """A client that dies with records still buffered loses them;
        the server database stays consistent (nothing half-applied)."""
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/before-crash", "w")
            proc.write(fd, b"durable")
            proc.close(fd)
            # A rename leaves a fresh NAME record in the client buffer.
            proc.rename("/nfs/before-crash", "/nfs/renamed")
            assert client.volume.lasagna.buffered > 0
            lost = client.crash()
        assert lost > 0
        server_sys.sync()
        db = server_sys.database("export")
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        # The original write's provenance arrived; the rename's did not.
        assert "/nfs/before-crash" in names
        assert "/nfs/renamed" not in names
        # But the rename itself (a metadata op) did happen server-side.
        assert server_sys.kernel.vfs.exists("/export/renamed")

    def test_server_crash_mid_session_then_restart(self):
        server_sys, server, clients = make_env()
        client_sys, client = clients[0]
        with client_sys.process() as proc:
            fd = proc.open("/nfs/early", "w")
            proc.write(fd, b"1")
            proc.close(fd)
        server.crash()
        with pytest.raises(StaleHandle):
            with client_sys.process() as proc:
                fd = proc.open("/nfs/during", "w")
                proc.write(fd, b"2")
        server.restart()
        with client_sys.process() as proc:
            fd = proc.open("/nfs/after", "w")
            proc.write(fd, b"3")
            proc.close(fd)
        assert server_sys.kernel.vfs.exists("/export/after")


class TestRenameSemantics:
    def test_cannot_replace_directory_with_file(self, system):
        with system.process() as proc:
            proc.mkdir("/pass/dir")
            fd = proc.open("/pass/file", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            with pytest.raises(IsADirectory):
                proc.rename("/pass/file", "/pass/dir")

    def test_cannot_replace_file_with_directory(self, system):
        with system.process() as proc:
            proc.mkdir("/pass/dir")
            fd = proc.open("/pass/file", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            with pytest.raises(NotADirectory):
                proc.rename("/pass/dir", "/pass/file")

    def test_rename_onto_self_is_noop(self, system):
        with system.process() as proc:
            fd = proc.open("/pass/same", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            proc.rename("/pass/same", "/pass/same")
            assert proc.exists("/pass/same")


class TestServerCrashMidDrain:
    def test_drain_crash_requeues_and_recovery_completes(self):
        """The server's Waldo dies between segments: the undrained
        segment goes back to the log and recovery inserts every
        committed record -- each client sync is fully applied."""
        from repro.faults import CrashFault, FaultInjector, FaultPlan
        from repro.storage.fsck import fsck
        from repro.storage.recovery import recover

        plan = FaultPlan().add("waldo.drain.segment", "crash", nth=2)
        injector = FaultInjector(plan)
        server_sys, server, clients = make_env(server_faults=injector)
        client_sys, client = clients[0]
        # Two sync rounds close two log segments server-side.
        for name in ("f1", "f2"):
            with client_sys.process() as proc:
                fd = proc.open(f"/nfs/{name}", "w")
                proc.write(fd, name.encode() * 32)
                proc.close(fd)
            client.sync()
        with pytest.raises(CrashFault):
            server_sys.sync()
        assert injector.halted
        waldo = server_sys.tier.waldo("export")
        lasagna = server_sys.kernel.volume("export").lasagna
        # The undrained segment never left the log.  Standard restart
        # sequence: drop volatile state, replay the log into the
        # database.
        assert len(lasagna.log.closed_segments) == 1
        lasagna.crash()
        report = recover(lasagna, database=waldo.database, consume=True)
        assert len(report.committed_records) > 0
        db = server_sys.database("export")
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert {"/nfs/f1", "/nfs/f2"} <= names
        assert fsck(server_sys.databases()).clean
        # Replaying recovery is a no-op (idempotence).
        before = len(db)
        second = recover(lasagna, database=waldo.database, consume=True)
        assert not second.committed_records
        assert len(db) == before


class TestPartitionDuringPassSync:
    def test_dropped_endtxn_orphans_the_half_sent_records(self):
        """The wire drops the ENDTXN call of a pass_sync: the records
        already streamed to the server sit in an unterminated
        transaction and are orphaned at the next drain -- fully
        absent, never half-applied."""
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector()
        server_sys, server, clients = make_env(net_faults=injector)
        client_sys, client = clients[0]
        # Durable baseline first, with the wire healthy.
        with client_sys.process() as proc:
            fd = proc.open("/nfs/keep", "w")
            proc.write(fd, b"durable")
            proc.close(fd)
        client.sync()
        server_sys.sync()
        # A rename buffers a fresh NAME record client-side.
        with client_sys.process() as proc:
            proc.rename("/nfs/keep", "/nfs/renamed")
        assert client.volume.lasagna.buffered > 0
        # The sync sends begintxn, one record chunk, endtxn; drop the
        # third call (the ENDTXN) mid-transaction.
        injector.plan = FaultPlan().add(
            "net.call", "drop", nth=injector.hits.get("net.call", 0) + 3)
        with pytest.raises(NetworkPartition):
            client.sync()
        inserted = server_sys.sync()
        db = server_sys.database("export")
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert "/nfs/keep" in names
        assert "/nfs/renamed" not in names          # fully absent
        waldo = server_sys.tier.waldo("export")
        assert any(r.attr == Attr.NAME and r.value == "/nfs/renamed"
                   for r in waldo.orphaned)
        # The drop was transient: the next write+sync round-trips.
        with client_sys.process() as proc:
            fd = proc.open("/nfs/after", "w")
            proc.write(fd, b"back online")
            proc.close(fd)
        client.sync()
        server_sys.sync()
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert "/nfs/after" in names
