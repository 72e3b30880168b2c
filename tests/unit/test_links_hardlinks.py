"""Tests for hard links: shared inodes, shared provenance."""

import pytest

from repro.core.errors import CrossDeviceLink, FileExists, IsADirectory
from repro.core.records import Attr
from repro.query.helpers import ancestry_refs
from tests.conftest import write_file


class TestVfsLink:
    def test_both_names_resolve_to_same_inode(self, baseline):
        with baseline.process() as proc:
            fd = proc.open("/pass/orig", "w")
            proc.write(fd, b"shared content")
            proc.close(fd)
            proc.link("/pass/orig", "/pass/alias")
            assert proc.stat("/pass/orig")["ino"] \
                == proc.stat("/pass/alias")["ino"]
            fd = proc.open("/pass/alias", "r")
            assert proc.read(fd) == b"shared content"

    def test_writes_visible_through_either_name(self, baseline):
        with baseline.process() as proc:
            fd = proc.open("/pass/a", "w")
            proc.write(fd, b"v1")
            proc.close(fd)
            proc.link("/pass/a", "/pass/b")
            fd = proc.open("/pass/b", "w")
            proc.write(fd, b"v2")
            proc.close(fd)
            fd = proc.open("/pass/a", "r")
            assert proc.read(fd) == b"v2"

    def test_unlink_one_name_keeps_inode(self, baseline):
        with baseline.process() as proc:
            fd = proc.open("/pass/a", "w")
            proc.write(fd, b"data")
            proc.close(fd)
            proc.link("/pass/a", "/pass/b")
            proc.unlink("/pass/a")
            fd = proc.open("/pass/b", "r")
            assert proc.read(fd) == b"data"

    def test_unlink_last_name_drops_inode(self, baseline):
        with baseline.process() as proc:
            fd = proc.open("/pass/a", "w")
            proc.write(fd, b"data")
            proc.close(fd)
            proc.link("/pass/a", "/pass/b")
            proc.unlink("/pass/a")
            proc.unlink("/pass/b")
            assert not proc.exists("/pass/a")
            assert not proc.exists("/pass/b")

    def test_link_to_existing_name_rejected(self, baseline):
        with baseline.process() as proc:
            for name in ("a", "b"):
                fd = proc.open(f"/pass/{name}", "w")
                proc.write(fd, b"x")
                proc.close(fd)
            with pytest.raises(FileExists):
                proc.link("/pass/a", "/pass/b")

    def test_link_directory_rejected(self, baseline):
        with baseline.process() as proc:
            proc.mkdir("/pass/d")
            with pytest.raises(IsADirectory):
                proc.link("/pass/d", "/pass/d2")

    def test_cross_volume_link_rejected(self, baseline):
        with baseline.process() as proc:
            fd = proc.open("/pass/a", "w")
            proc.write(fd, b"x")
            proc.close(fd)
            with pytest.raises(CrossDeviceLink):
                proc.link("/pass/a", "/scratch/a")


class TestLinkProvenance:
    def test_provenance_shared_across_names(self, system):
        write_file(system, "/pass/downloaded", b"payload")
        with system.process() as proc:
            proc.mkdir("/pass/talk")
            proc.link("/pass/downloaded", "/pass/talk/figure")
        system.sync()
        via_old = system.find_by_name("/pass/downloaded")
        via_new = system.find_by_name("/pass/talk/figure")
        assert via_old and via_new
        assert via_old[0].pnode == via_new[0].pnode

    def test_ancestry_reachable_from_link_name(self, system):
        write_file(system, "/pass/src", b"input")
        with system.process(argv=["builder"]) as proc:
            fd = proc.open("/pass/src", "r")
            data = proc.read(fd)
            proc.close(fd)
            out = proc.open("/pass/built", "w")
            proc.write(out, data)
            proc.close(out)
            proc.link("/pass/built", "/pass/release")
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/release")[0]
        names = set()
        for anc in ancestry_refs(system.query_engine().graph, ref):
            names.update(db.attribute_values(anc, Attr.NAME))
        assert "/pass/src" in names
        assert "builder" in names
