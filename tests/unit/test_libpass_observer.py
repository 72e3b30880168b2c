"""Unit tests for libpass (the user-level DPAPI) and observer details."""

import pytest

from repro.core.errors import (
    BadFileDescriptor,
    ProvenanceError,
    StalePnodeVersion,
    UnknownPnode,
)
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType
from repro.query.helpers import ancestry_refs
from repro.system import System


@pytest.fixture
def shell(system):
    with system.process(argv=["app"]) as proc:
        yield proc


class TestPassReadWrite:
    def test_pass_read_returns_exact_identity(self, system, shell):
        fd = shell.open("/pass/f", "w")
        shell.write(fd, b"hello")
        shell.close(fd)
        fd = shell.open("/pass/f", "r")
        data, ref = shell.dpapi.pass_read(fd)
        assert data == b"hello"
        inode = system.kernel.vfs.resolve("/pass/f")
        assert ref == ObjectRef(inode.pnode, inode.version)

    def test_pass_read_moves_offset(self, shell):
        fd = shell.open("/pass/f", "w")
        shell.write(fd, b"abcdef")
        shell.close(fd)
        fd = shell.open("/pass/f", "r")
        data1, _ = shell.dpapi.pass_read(fd, 3)
        data2, _ = shell.dpapi.pass_read(fd)
        assert (data1, data2) == (b"abc", b"def")

    def test_pass_read_requires_file_fd(self, shell):
        rfd, _ = shell.pipe()
        with pytest.raises(BadFileDescriptor):
            shell.dpapi.pass_read(rfd)

    def test_pass_write_with_disclosed_record(self, system, shell):
        fd = shell.open("/pass/out", "w")
        record = shell.dpapi.record(fd, Attr.ANNOTATION, "from-app")
        written = shell.dpapi.pass_write(fd, b"payload", [record])
        assert written == 7
        shell.close(fd)
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/out")[0]
        notes = [r.value for r in db.records_of(ref.pnode)
                 if r.attr == Attr.ANNOTATION]
        assert notes == ["from-app"]

    def test_pass_write_adds_kernel_record_too(self, system, shell):
        """Disclosing does not exempt the kernel from recording the
        application -> file dependency (section 5.3)."""
        fd = shell.open("/pass/out", "w")
        shell.dpapi.pass_write(fd, b"data", [])
        shell.close(fd)
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/out")[0]
        inputs = [r.value for r in db.records_of(ref.pnode)
                  if r.attr == Attr.INPUT]
        assert ObjectRef(shell.proc.pnode, 0) in inputs


class TestMkobjLifecycle:
    def test_mkobj_returns_object_descriptor(self, shell):
        fd = shell.dpapi.pass_mkobj()
        ref = shell.dpapi.ref_of(fd)
        assert ref.version == 0
        assert ref.volume_id == 0          # transient space

    def test_mkobj_cannot_carry_data(self, shell):
        fd = shell.dpapi.pass_mkobj()
        with pytest.raises(BadFileDescriptor):
            shell.dpapi.pass_write(fd, b"data")

    def test_mkobj_provenance_stays_cached_without_descendants(
            self, system, shell):
        fd = shell.dpapi.pass_mkobj()
        shell.dpapi.pass_write(fd, records=[
            shell.dpapi.record(fd, Attr.TYPE, ObjType.DATASET),
        ])
        system.sync()
        db = system.database("pass")
        assert not [r for r in db.all_records()
                    if r.attr == Attr.TYPE and r.value == ObjType.DATASET]

    def test_pass_sync_forces_persistence(self, system, shell):
        fd = shell.dpapi.pass_mkobj()
        shell.dpapi.pass_write(fd, records=[
            shell.dpapi.record(fd, Attr.TYPE, ObjType.DATASET),
        ])
        shell.dpapi.pass_sync(fd)
        system.sync()
        db = system.database("pass")
        assert [r for r in db.all_records()
                if r.attr == Attr.TYPE and r.value == ObjType.DATASET]

    def test_mkobj_volume_hint_routes(self, two_volume_system):
        system = two_volume_system
        with system.process() as shell:
            fd = shell.dpapi.pass_mkobj(volume_hint="pass2")
            shell.dpapi.pass_write(fd, records=[
                shell.dpapi.record(fd, Attr.NAME, "hinted-object"),
            ])
            shell.dpapi.pass_sync(fd)
        system.sync()
        names2 = [r.value for r in system.database("pass2").all_records()
                  if r.attr == Attr.NAME]
        assert "hinted-object" in names2

    def test_reviveobj_roundtrip(self, shell):
        fd = shell.dpapi.pass_mkobj()
        ref = shell.dpapi.ref_of(fd)
        revived_fd = shell.dpapi.pass_reviveobj(ref.pnode, ref.version)
        assert shell.dpapi.ref_of(revived_fd) == ref

    def test_reviveobj_bad_pnode(self, shell):
        with pytest.raises(StalePnodeVersion):
            shell.dpapi.pass_reviveobj(999999, 0)

    def test_reviveobj_bad_version(self, shell):
        fd = shell.dpapi.pass_mkobj()
        ref = shell.dpapi.ref_of(fd)
        with pytest.raises(StalePnodeVersion):
            shell.dpapi.pass_reviveobj(ref.pnode, 42)

    def test_pass_freeze_bumps_version(self, shell):
        fd = shell.dpapi.pass_mkobj()
        assert shell.dpapi.pass_freeze(fd) == 1
        assert shell.dpapi.ref_of(fd).version == 1

    def test_dpapi_unavailable_without_provenance(self, baseline):
        with baseline.process() as shell:
            with pytest.raises(ProvenanceError):
                shell.dpapi.pass_mkobj()

    def test_pass_sync_unknown_object(self, system):
        with pytest.raises(UnknownPnode):
            system.kernel.observer.sync(123456789)


class TestObserverDetails:
    def test_identity_emitted_once_per_object(self, system):
        from tests.conftest import write_file
        for _ in range(3):
            with system.process() as proc:
                fd = proc.open("/pass/same", "r" if
                               system.kernel.vfs.exists("/pass/same")
                               else "w")
                if fd is not None and proc.proc.lookup_fd(fd).writable:
                    proc.write(fd, b"x")
                else:
                    proc.read(fd)
                proc.close(fd)
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/same")[0]
        type_records = [r for r in db.records_of(ref.pnode)
                        if r.attr == Attr.TYPE]
        assert len(type_records) == 1

    def test_env_and_argv_recorded(self, system):
        def prog(sc):
            fd = sc.open("/pass/out", "w")
            sc.write(fd, b"x")
            sc.close(fd)
            return 0

        system.register_program("/pass/bin/tool", prog)
        system.run("/pass/bin/tool", argv=["tool", "--flag", "value"],
                   env={"LANG": "C", "USER": "alice"})
        system.sync()
        db = system.database("pass")
        argvs = [r.value for r in db.all_records() if r.attr == Attr.ARGV]
        envs = [r.value for r in db.all_records() if r.attr == Attr.ENV]
        assert any("--flag" in value for value in argvs)
        assert any("USER=alice" in value for value in envs)

    def test_mmap_read_creates_dependency(self, system):
        from tests.conftest import write_file
        write_file(system, "/pass/mapped", b"data")
        with system.process(argv=["mapper"]) as proc:
            fd = proc.open("/pass/mapped", "r")
            proc.mmap(fd, readable=True, writable=False)
            proc.close(fd)
            out = proc.open("/pass/out", "w")
            proc.write(out, b"derived")
            proc.close(out)
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/out")[0]
        names = set()
        for ref in ancestry_refs(system.query_engine().graph, out_ref):
            names.update(db.attribute_values(ref, Attr.NAME))
        assert "/pass/mapped" in names

    def test_mmap_write_creates_reverse_dependency(self, system):
        from tests.conftest import write_file
        write_file(system, "/pass/shared", b"data")
        with system.process(argv=["mapper"]) as proc:
            fd = proc.open("/pass/shared", "r+")
            proc.mmap(fd, readable=False, writable=True)
            proc.close(fd)
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/shared")[0]
        all_inputs = [r for r in db.records_of(ref.pnode)
                      if r.attr == Attr.INPUT]
        assert len(all_inputs) >= 2     # writer process + mapper process

    def test_nonpass_file_discarded_on_unlink(self, system):
        """drop_inode on a scratch file with no persistent descendants
        discards its cached provenance (section 5.5)."""
        with system.process() as proc:
            fd = proc.open("/scratch/tmp", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            inode = system.kernel.vfs.resolve("/scratch/tmp")
            pnode = inode.pnode
            assert system.kernel.distributor.cached_records(pnode)
            proc.unlink("/scratch/tmp")
            assert not system.kernel.distributor.cached_records(pnode)
        assert system.kernel.distributor.records_discarded > 0
