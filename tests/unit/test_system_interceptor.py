"""Unit tests for System assembly and the interceptor."""

import pytest

from repro.core.errors import VolumeError
from repro.kernel.interceptor import HANDLED_EVENTS, Interceptor
from repro.system import System


class TestInterceptor:
    def test_disabled_by_default(self):
        interceptor = Interceptor()
        assert interceptor.event("read") is None
        assert interceptor.counts["read"] == 1

    def test_attach_enables(self):
        interceptor = Interceptor()
        sentinel = object()
        interceptor.attach(sentinel)
        assert interceptor.event("write") is sentinel

    def test_detach_disables_but_keeps_counting(self):
        interceptor = Interceptor()
        interceptor.attach(object())
        interceptor.enabled = False
        assert interceptor.event("write") is None
        assert interceptor.counts["write"] == 1

    def test_unknown_events_ignored(self):
        interceptor = Interceptor()
        interceptor.attach(object())
        assert interceptor.event("ioctl") is None
        assert interceptor.counts["ioctl"] == 0

    def test_paper_syscall_list_covered(self):
        expected = {"execve", "fork", "exit", "read", "readv", "write",
                    "writev", "mmap", "open", "pipe", "drop_inode"}
        assert expected == HANDLED_EVENTS


class TestSystemAssembly:
    def test_default_boot_layout(self):
        system = System.boot()
        mounts = system.kernel.vfs._mounts
        assert "/pass" in mounts and "/scratch" in mounts
        assert mounts["/pass"].pass_capable
        assert not mounts["/scratch"].pass_capable
        assert system.kernel.provenance_on

    def test_baseline_boot(self):
        system = System.boot(provenance=False)
        assert not system.kernel.provenance_on
        assert system.kernel.volume("pass").lasagna is None
        assert system.tier.volumes() == []

    def test_cache_shrunk_only_with_provenance(self):
        base = System.boot(provenance=False)
        prov = System.boot(provenance=True)
        assert prov.kernel.cache._capacity < base.kernel.cache._capacity

    def test_duplicate_volume_rejected(self):
        system = System.boot()
        with pytest.raises(VolumeError):
            system.kernel.add_volume("pass", "/elsewhere")

    def test_sync_returns_inserted_count(self):
        system = System.boot()
        with system.process() as proc:
            fd = proc.open("/pass/f", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        assert system.sync() > 0
        assert system.sync() == 0          # drained

    def test_database_default_volume(self):
        system = System.boot()
        assert system.database() is system.database("pass")

    def test_find_by_name_spans_volumes(self, ):
        system = System.boot(pass_volumes=("p1", "p2"))
        with system.process() as proc:
            for volume in ("p1", "p2"):
                fd = proc.open(f"/{volume}/same-name", "w")
                proc.write(fd, b"x")
                proc.close(fd)
        system.sync()
        # Names are full paths, so query each volume's name.
        assert system.find_by_name("/p1/same-name")
        assert system.find_by_name("/p2/same-name")

    def test_elapsed_monotonic(self):
        system = System.boot()
        t0 = system.elapsed()
        with system.process() as proc:
            proc.compute(1.0)
        assert system.elapsed() >= t0 + 1.0

    def test_repr_mentions_mode(self):
        assert "PASSv2" in repr(System.boot())
        assert "baseline" in repr(System.boot(provenance=False))

    def test_disable_reenable_provenance(self):
        system = System.boot()
        system.kernel.interceptor.enabled = False
        with system.process() as proc:
            fd = proc.open("/pass/quiet", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        system.sync()
        assert not system.find_by_name("/pass/quiet")
        system.kernel.interceptor.enabled = True
        with system.process() as proc:
            fd = proc.open("/pass/loud", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        system.sync()
        assert system.find_by_name("/pass/loud")


class TestLogRotationPolicy:
    def test_size_rotation_in_live_system(self):
        from repro.kernel.params import SimParams
        params = SimParams()
        params.log.max_size = 2048
        system = System.boot(params=params)
        with system.process() as proc:
            for index in range(60):
                fd = proc.open(f"/pass/f{index}", "w")
                proc.write(fd, b"x")
                proc.close(fd)
        waldo = system.tier.waldo("pass")
        assert waldo.drain() > 0          # rotated segments arrived early

    def test_dormancy_rotation_via_tick(self):
        system = System.boot()
        with system.process() as proc:
            fd = proc.open("/pass/f", "w")
            proc.write(fd, b"x")
            proc.close(fd)
        log = system.kernel.volume("pass").lasagna.log
        system.kernel.clock.advance(60.0)
        log.tick()
        assert log.closed_segments
