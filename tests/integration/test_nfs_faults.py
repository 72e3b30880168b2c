"""PA-NFS fault injection through the real client path."""

from collections import Counter

import pytest

from repro.core.errors import (
    IsADirectory,
    NetworkPartition,
    NotADirectory,
    StaleHandle,
)
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType
from tests.integration.test_nfs import make_env, sync_all


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
            assert client.volume.lasagna._buffer
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
        assert client.volume.lasagna._buffer
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
        # The chunk carried the rename's NAME record and nothing else.
        assert server_sys.tier.waldo("export").orphaned == 1
        # The drop was transient: the next write+sync round-trips.
        with client_sys.process() as proc:
            fd = proc.open("/nfs/after", "w")
            proc.write(fd, b"back online")
            proc.close(fd)
        client.sync()
        server_sys.sync()
        names = {r.value for r in db.all_records() if r.attr == Attr.NAME}
        assert "/nfs/after" in names


class TestLateRecordsForFrozenVersion:
    """Close-to-open lets a client write a version the server has since
    frozen locally.  The client's records for it arrive finalized: the
    server analyzer drops a repeat while it holds that version's keys,
    and admits it once more after a sweep dropped them (the rule in
    ``Analyzer.submit``)."""

    @staticmethod
    def version_zero_rows(sweep):
        """How often each TYPE/NAME/INPUT statement about the shared
        file's version 0 is stored on the server."""
        server_sys, _, clients = make_env(clients=2)
        (sys_a, _), (sys_b, _) = clients
        with sys_a.process(argv=["writer-a"]) as proc:
            fd = proc.open("/nfs/shared", "w")
            proc.write(fd, b"base")
            proc.close(fd)
        # B opens version 0; then a second server-local writer freezes
        # the file 0 -> 1 on the server.
        proc_b = sys_b.kernel.spawn_shell(["editor-b"])
        fd_b = proc_b.open("/nfs/shared", "r+")
        for name in ("local-1", "local-2"):
            with server_sys.process(argv=[name]) as proc:
                fd = proc.open("/export/shared", "a")
                proc.write(fd, name.encode())
                proc.close(fd)
        if sweep:
            # Past the sweep floor: the next freeze sweeps, taking the
            # keys of the frozen version 0 with it.
            with server_sys.process(argv=["pump"]) as proc:
                fd = proc.open("/export/pump", "w")
                proc.dpapi.pass_write(fd, records=proc.dpapi.record_many(
                    fd, Attr.ANNOTATION, list(map(str, range(1 << 16)))))
                proc.dpapi.pass_freeze(fd)
                proc.close(fd)
            assert server_sys.kernel.analyzer.dedup_sweeps == 1
        proc_b.write(fd_b, b"late")
        proc_b.close(fd_b)
        sys_b.kernel.reap(proc_b.proc, 0)
        sync_all(server_sys, clients)
        shared = ObjectRef(
            server_sys.kernel.vfs.resolve("/export/shared").pnode, 0)
        return Counter(
            (record.attr, record.value)
            for record in server_sys.database("export").all_records()
            if record.subject == shared
            and record.attr in (Attr.TYPE, Attr.NAME, Attr.INPUT))

    def test_repeat_dropped_while_keys_are_held(self):
        rows = self.version_zero_rows(sweep=False)
        assert rows[(Attr.TYPE, ObjType.FILE)] == 1
        assert set(rows.values()) == {1}

    def test_repeat_admitted_once_more_after_a_sweep(self):
        held = self.version_zero_rows(sweep=False)
        swept = self.version_zero_rows(sweep=True)
        assert swept.keys() == held.keys()
        assert swept[(Attr.TYPE, ObjType.FILE)] == 2
        assert swept[(Attr.NAME, "/nfs/shared")] == 2
        assert max(swept.values()) == 2
