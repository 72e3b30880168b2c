"""Stateful property testing: drive a live system through random
operation sequences and check the global invariants at every step.

Complements the scripted property tests: the RuleBasedStateMachine
explores *interleavings* (multiple live processes, syncs in the middle
of activity, renames between writes) that linear generators don't.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.storage.fsck import fsck
from repro.system import System

NAMES = ["alpha", "beta", "gamma", "delta"]


class SystemMachine(RuleBasedStateMachine):
    files = Bundle("files")

    @initialize()
    def boot(self):
        self.system = System.boot()
        self.procs = [self.system.kernel.spawn_shell(["p0"])]
        self.synced_once = False

    def _proc(self, index):
        return self.procs[index % len(self.procs)]

    # -- rules ----------------------------------------------------------------

    @rule(target=files, name=st.sampled_from(NAMES),
          proc_index=st.integers(0, 3))
    def create_file(self, name, proc_index):
        proc = self._proc(proc_index)
        path = f"/pass/{name}"
        fd = proc.open(path, "w")
        proc.write(fd, name.encode())
        proc.close(fd)
        return path

    @rule(path=files, proc_index=st.integers(0, 3))
    def read_file(self, path, proc_index):
        proc = self._proc(proc_index)
        if not proc.exists(path):
            return
        fd = proc.open(path, "r")
        proc.read(fd)
        proc.close(fd)

    @rule(path=files, proc_index=st.integers(0, 3))
    def read_modify_write(self, path, proc_index):
        proc = self._proc(proc_index)
        if not proc.exists(path):
            return
        fd = proc.open(path, "r+")
        proc.read(fd)
        proc.write(fd, b"mutated")
        proc.close(fd)

    @rule(path=files, suffix=st.integers(0, 2))
    def rename_file(self, path, suffix):
        proc = self._proc(0)
        if not proc.exists(path):
            return
        target = f"{path}-r{suffix}"
        if proc.exists(target):
            return
        proc.rename(path, target)
        proc.rename(target, path)      # rename back: path stays valid

    @rule(path=files)
    def copy_file(self, path):
        proc = self._proc(0)
        if not proc.exists(path):
            return
        fd = proc.open(path, "r")
        data = proc.read(fd)
        proc.close(fd)
        out = proc.open(f"{path}-copy", "w")
        proc.write(out, data)
        proc.close(out)

    @rule()
    def spawn_process(self):
        if len(self.procs) < 5:
            self.procs.append(self.system.kernel.spawn_shell(
                [f"p{len(self.procs)}"]))

    @rule()
    def retire_process(self):
        if len(self.procs) > 1:
            proc = self.procs.pop()
            self.system.kernel.reap(proc.proc, 0)

    @rule()
    def sync(self):
        self.system.sync()
        self.synced_once = True

    # -- invariants ------------------------------------------------------------

    @invariant()
    def store_is_clean(self):
        if not getattr(self, "synced_once", False):
            return
        self.system.sync()
        report = fsck(self.system.databases())
        assert report.clean, "\n".join(str(f) for f in report.findings)

    @invariant()
    def analyzer_counters_sane(self):
        analyzer = getattr(self, "system", None)
        if analyzer is None:
            return
        analyzer = self.system.kernel.analyzer
        assert analyzer.records_out <= analyzer.records_in + analyzer.freezes


SystemMachine.TestCase.settings = __import__("hypothesis").settings(
    max_examples=25, stateful_step_count=20, deadline=None,
)
TestSystemMachine = SystemMachine.TestCase


class NfsFaultMachine(RuleBasedStateMachine):
    """Client/server pair under churn: writes interleaved with network
    partition/heal, client crashes, and server log crash+recover.  The
    server's provenance store must be fsck-clean at every step the wire
    allows us to observe it."""

    remote_files = Bundle("remote_files")

    @initialize()
    def boot(self):
        # Imported lazily: tests.integration is a sibling package.
        from tests.integration.test_nfs import make_env
        self.server_sys, self.server, clients = make_env()
        self.client_sys, self.client = clients[0]
        self.partitioned = False
        self.counter = 0

    # -- rules ----------------------------------------------------------------

    @rule(target=remote_files, name=st.sampled_from(NAMES))
    def write_remote(self, name):
        from repro.core.errors import NetworkPartition
        path = f"/nfs/{name}-{self.counter}"
        self.counter += 1
        with self.client_sys.process() as proc:
            if self.partitioned:
                try:
                    fd = proc.open(path, "w")
                    proc.write(fd, name.encode())
                except NetworkPartition:
                    return multiple()
                raise AssertionError("write crossed a partitioned wire")
            fd = proc.open(path, "w")
            proc.write(fd, name.encode() * 8)
            proc.close(fd)
        return path

    @rule(path=remote_files)
    def rewrite_remote(self, path):
        if self.partitioned:
            return
        with self.client_sys.process() as proc:
            if not proc.exists(path):
                return
            fd = proc.open(path, "w")
            proc.write(fd, b"rewrite")
            proc.close(fd)

    @rule()
    def partition(self):
        self.client.network.partition()
        self.partitioned = True

    @rule()
    def heal(self):
        self.client.network.heal()
        self.partitioned = False

    @rule()
    def client_crash(self):
        """The client dies with whatever it had buffered; the server
        must never see a half-applied transaction."""
        self.client.crash()

    @rule()
    def client_sync(self):
        from repro.core.errors import NetworkPartition
        if self.partitioned:
            try:
                self.client.sync()
            except NetworkPartition:
                return
            return                      # nothing buffered: no wire call
        self.client.sync()

    @rule()
    def server_sync(self):
        self.server_sys.sync()

    @rule()
    def server_log_crash_and_recover(self):
        """Kill the server's log volatile state mid-flight and run the
        standard recovery sequence; service then continues."""
        from repro.storage.recovery import recover
        waldo = self.server_sys.tier.waldo("export")
        lasagna = self.server_sys.kernel.volume("export").lasagna
        lasagna.crash()
        recover(lasagna, database=waldo.database, consume=True)
        # Idempotence: an immediate second pass changes nothing.
        before = len(waldo.database)
        second = recover(lasagna, database=waldo.database, consume=True)
        assert second.clean and not second.committed_records
        assert len(waldo.database) == before

    # -- invariants ------------------------------------------------------------

    @invariant()
    def server_store_is_clean(self):
        if getattr(self, "partitioned", True):
            return                      # cannot flush the client's view
        self.client.sync()
        self.server_sys.sync()
        report = fsck(self.server_sys.databases())
        assert report.clean, "\n".join(str(f) for f in report.findings)


NfsFaultMachine.TestCase.settings = __import__("hypothesis").settings(
    max_examples=20, stateful_step_count=25, deadline=None,
)
TestNfsFaultMachine = NfsFaultMachine.TestCase
