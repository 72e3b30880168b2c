"""Unit tests for SparseFile and VFS path operations."""

import random

import pytest

from repro.core.errors import (
    CrossDeviceLink,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.kernel.cache import PageCache
from repro.kernel.clock import SimClock
from repro.kernel.disk import SimulatedDisk
from repro.kernel.params import CacheParams
from repro.kernel.vfs import VFS, SparseFile
from repro.kernel.volume import Volume


class TestSparseFile:
    def test_write_read_roundtrip(self):
        f = SparseFile()
        f.write(0, b"hello world")
        assert f.read(0, 11) == b"hello world"
        assert f.size == 11

    def test_read_past_eof_truncates(self):
        f = SparseFile()
        f.write(0, b"abc")
        assert f.read(0, 100) == b"abc"
        assert f.read(5, 10) == b""

    def test_holes_read_as_zeros(self):
        f = SparseFile()
        f.write_hole(0, 10)
        assert f.read(0, 10) == b"\x00" * 10
        assert f.real_bytes == 0

    def test_hole_then_real_write(self):
        f = SparseFile()
        f.write_hole(0, 100)
        f.write(50, b"XY")
        assert f.read(48, 6) == b"\x00\x00XY\x00\x00"
        assert f.real_bytes == 2

    def test_overwrite_middle(self):
        f = SparseFile()
        f.write(0, b"aaaaaaaaaa")
        f.write(3, b"BBB")
        assert f.read(0, 10) == b"aaaBBBaaaa"

    def test_overwrite_spanning_chunks(self):
        f = SparseFile()
        f.write(0, b"aaa")
        f.write(6, b"ccc")
        f.write(2, b"BBBBB")
        assert f.read(0, 9) == b"aaBBBBBcc"

    def test_hole_punches_through_real_data(self):
        f = SparseFile()
        f.write(0, b"abcdef")
        f.write_hole(2, 2)
        assert f.read(0, 6) == b"ab\x00\x00ef"

    def test_append_pattern_coalesces(self):
        f = SparseFile()
        for i in range(50):
            f.write(i * 4, b"abcd")
        assert f.read(0, 200) == b"abcd" * 50
        # Sequential appends should not leave 50 fragments behind.
        assert len(f._chunks) < 10

    def test_truncate_discards_tail(self):
        f = SparseFile()
        f.write(0, b"abcdef")
        f.truncate(3)
        assert f.size == 3
        assert f.read(0, 10) == b"abc"

    def test_truncate_extends_with_zeros(self):
        f = SparseFile()
        f.write(0, b"ab")
        f.truncate(5)
        assert f.size == 5
        assert f.read(0, 5) == b"ab\x00\x00\x00"

    def test_sparse_writes_far_apart(self):
        f = SparseFile()
        f.write(1_000_000, b"far")
        f.write(0, b"near")
        assert f.read(999_998, 7) == b"\x00\x00far"   # EOF at 1,000,003
        assert f.size == 1_000_003

    def test_negative_offsets_rejected(self):
        f = SparseFile()
        with pytest.raises(ValueError):
            f.write(-1, b"x")
        with pytest.raises(ValueError):
            f.read(-1, 5)


def make_vfs(names=("root",), pass_capable=False):
    clock = SimClock()
    disk = SimulatedDisk(clock)
    cache = PageCache()
    vfs = VFS()
    volumes = []
    for index, name in enumerate(names):
        volume = Volume(name, index + 1, clock, disk, cache,
                        pass_capable=pass_capable)
        mountpoint = "/" if index == 0 else f"/{name}"
        vfs.mount(volume, mountpoint)
        volumes.append(volume)
    return vfs, volumes


class TestVFSPaths:
    def test_create_and_resolve(self):
        vfs, _ = make_vfs()
        inode = vfs.create("/a.txt")
        assert vfs.resolve("/a.txt") is inode

    def test_nested_dirs(self):
        vfs, _ = make_vfs()
        vfs.mkdir("/d")
        vfs.mkdir("/d/e")
        inode = vfs.create("/d/e/f.txt")
        assert vfs.resolve("/d/e/f.txt") is inode

    def test_missing_path_raises(self):
        vfs, _ = make_vfs()
        with pytest.raises(FileNotFound):
            vfs.resolve("/nope")

    def test_exclusive_create_conflict(self):
        vfs, _ = make_vfs()
        vfs.create("/a")
        with pytest.raises(FileExists):
            vfs.create("/a", exclusive=True)

    def test_nonexclusive_create_returns_existing(self):
        vfs, _ = make_vfs()
        first = vfs.create("/a")
        second = vfs.create("/a", exclusive=False)
        assert first is second

    def test_file_component_in_path_raises(self):
        vfs, _ = make_vfs()
        vfs.create("/a")
        with pytest.raises(NotADirectory):
            vfs.resolve("/a/b")

    def test_unlink_removes_name(self):
        vfs, _ = make_vfs()
        vfs.create("/a")
        vfs.unlink("/a")
        assert not vfs.exists("/a")

    def test_unlink_directory_raises(self):
        vfs, _ = make_vfs()
        vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            vfs.unlink("/d")

    def test_rmdir_nonempty_raises(self):
        vfs, _ = make_vfs()
        vfs.mkdir("/d")
        vfs.create("/d/x")
        with pytest.raises(DirectoryNotEmpty):
            vfs.rmdir("/d")

    def test_rename_same_volume(self):
        vfs, _ = make_vfs()
        inode = vfs.create("/a")
        vfs.rename("/a", "/b")
        assert vfs.resolve("/b") is inode
        assert not vfs.exists("/a")

    def test_rename_replaces_target(self):
        vfs, volumes = make_vfs()
        vfs.create("/a")
        victim = vfs.create("/b")
        vfs.rename("/a", "/b")
        assert victim.ino not in [i.ino for i in volumes[0].live_inodes()]

    def test_rename_across_volumes_is_exdev(self):
        vfs, _ = make_vfs(names=("root", "other"))
        vfs.create("/a")
        with pytest.raises(CrossDeviceLink):
            vfs.rename("/a", "/other/a")

    def test_readdir_sorted(self):
        vfs, _ = make_vfs()
        for name in ("c", "a", "b"):
            vfs.create(f"/{name}")
        assert vfs.readdir("/") == ["a", "b", "c"]

    def test_mount_routing(self):
        vfs, volumes = make_vfs(names=("root", "pass"))
        inode = vfs.create("/pass/x")
        assert inode.volume is volumes[1]

    def test_relative_path_rejected(self):
        vfs, _ = make_vfs()
        with pytest.raises(FileNotFound):
            vfs.resolve("relative")

    def test_dot_and_dotdot_normalization(self):
        vfs, _ = make_vfs()
        vfs.mkdir("/d")
        inode = vfs.create("/d/x")
        assert vfs.resolve("/d/./x") is inode
        assert vfs.resolve("/d/../d/x") is inode

    @pytest.mark.parametrize("path, normal", [
        ("/", "/"), ("/a", "/a"), ("/a/b.c/d", "/a/b.c/d"),
        ("//", "/"), ("/a/", "/a"), ("//a//b", "/a/b"),
        ("/a/./b", "/a/b"), ("/a/.", "/a"), ("/a/..", "/"),
        ("/..", "/"), ("/a/../../b/", "/b"),
        # Names that only look special stay as they are.
        ("/.hg/store", "/.hg/store"), ("/a/.b", "/a/.b"),
        ("/a/...", "/a/..."), ("/a/..b/c", "/a/..b/c"),
    ])
    def test_norm(self, path, normal):
        assert VFS._norm(path) == normal
        assert VFS._norm(normal) == normal

    def test_deepest_mount_wins_until_it_is_unmounted(self):
        vfs, (root, outer) = make_vfs(names=("root", "outer"))
        inner = Volume("inner", 3, outer.clock, outer.disk, outer.cache)
        vfs.mount(inner, "/outer/inner")
        assert vfs.volume_for("/outer/inner/x") == (inner, "x")
        assert vfs.volume_for("/outer/inner") == (inner, "")
        assert vfs.volume_for("/outer/innermost/x") == (outer, "innermost/x")
        assert vfs.volume_for("/outer/./inner/../y/") == (outer, "y")
        assert vfs.volume_for("/elsewhere") == (root, "elsewhere")
        assert vfs.unmount("/outer/inner/") is inner
        assert inner.mountpoint is None
        assert vfs.volume_for("/outer/inner/x") == (outer, "inner/x")
        with pytest.raises(FileNotFound):
            vfs.unmount("/outer/inner")

    def test_walk(self):
        vfs, _ = make_vfs()
        vfs.mkdir("/d")
        vfs.create("/d/x")
        vfs.create("/y")
        paths = [path for path, _ in vfs.walk("/")]
        assert paths == ["/", "/d", "/d/x", "/y"]


class TestVolumeIO:
    def test_write_read_with_cost(self):
        vfs, volumes = make_vfs()
        volume = volumes[0]
        inode = vfs.create("/f")
        clock_before = volume.clock.now
        volume.write_bytes(inode, 0, b"data" * 1000)
        assert volume.clock.now > clock_before
        assert volume.read_bytes(inode, 0, 8) == b"datadata"

    def test_hole_write_counts_bytes(self):
        vfs, volumes = make_vfs()
        volume = volumes[0]
        inode = vfs.create("/f")
        volume.write_bytes(inode, 0, None, 1 << 20)
        assert inode.size == 1 << 20
        assert volume.data_bytes_written == 1 << 20
        assert inode.data.real_bytes == 0

    def test_pass_volume_assigns_pnodes(self):
        vfs, volumes = make_vfs(pass_capable=True)
        a = vfs.create("/a")
        b = vfs.create("/b")
        assert a.pnode and b.pnode and a.pnode != b.pnode

    def test_plain_volume_pnode_zero(self):
        vfs, _ = make_vfs()
        assert vfs.create("/a").pnode == 0

    def test_used_bytes(self):
        vfs, volumes = make_vfs()
        inode = vfs.create("/f")
        volumes[0].write_bytes(inode, 0, None, 5000)
        assert volumes[0].used_bytes() == 5000

    def test_cached_read_costs_nothing(self):
        vfs, volumes = make_vfs()
        volume = volumes[0]
        inode = vfs.create("/f")
        volume.write_bytes(inode, 0, b"x" * 8192)
        t0 = volume.clock.now
        volume.read_bytes(inode, 0, 8192)   # cache hit (write-through)
        assert volume.clock.now == t0


def blocks_in(runs):
    return [block for run in runs for block in run]


class TestUnmount:
    def test_departed_volume_leaves_the_cache(self):
        """Dead pages used to keep counting against the capacity: the
        survivor's older pages were evicted to make room beside them."""
        clock = SimClock()
        disk = SimulatedDisk(clock)
        cache = PageCache(CacheParams(capacity_pages=8))
        vfs = VFS()
        stays = Volume("stays", 1, clock, disk, cache)
        leaves = Volume("leaves", 2, clock, disk, cache)
        vfs.mount(stays, "/")
        vfs.mount(leaves, "/leaves")
        size = stays.block_size
        inode = vfs.create("/f")
        stays.write_bytes(inode, 0, None, 4 * size)
        leaves.write_bytes(vfs.create("/leaves/g"), 0, None, 4 * size)
        assert len(cache) == 8
        vfs.unmount("/leaves")
        assert len(cache) == 4
        assert {volume_id for volume_id, _ in cache.lru_order()} == {1}
        stays.write_bytes(inode, 4 * size, None, 4 * size)
        stays.read_bytes(inode, 0, 8 * size)
        assert (cache.hits, cache.misses, cache.evictions) == (8, 0, 0)
        assert disk.bytes_read == 0


class TestExtentWalk:
    """``Inode.block_runs`` is ``block_for`` per logical block, in one
    walk, as ranges."""

    def fragmented(self, rng):
        """Files grown in interleaved appends: every growth is one more
        extent, and the neighbours' growths sit between them."""
        vfs, volumes = make_vfs()
        volume = volumes[0]
        inodes = [vfs.create(f"/f{index}") for index in range(3)]
        for _ in range(rng.randint(0, 12)):
            inode = rng.choice(inodes)
            volume.write_bytes(inode, inode.size, None,
                               rng.randint(1, 5 * volume.block_size))
        return volume, inodes

    def test_blocks_equal_block_for(self):
        rng = random.Random(14)
        shapes = set()
        for _ in range(200):
            volume, inodes = self.fragmented(rng)
            size = volume.block_size
            for inode in inodes:
                shapes.add(len(inode.extents))
                for _ in range(8):
                    # Ranges inside, across and past the last extent.
                    first = rng.randint(0, inode.allocated_blocks + 3)
                    last = first + rng.randint(0, 12)
                    runs = inode.block_runs(first, last)
                    assert all(type(run) is range and run for run in runs)
                    assert blocks_in(runs) == [
                        inode.block_for(logical * size)
                        for logical in range(first, last + 1)]
                    assert len(runs) <= len(inode.extents) + last - first + 1
        assert {0, 1, 2, 3} <= shapes     # no extents ... several

    def test_unallocated_tail_repeats_one_block(self):
        vfs, volumes = make_vfs()
        inode = vfs.create("/f")
        tail = volumes[0].data_region.tail
        assert blocks_in(inode.block_runs(0, 2)) == [tail] * 3  # no extents
        volumes[0].write_bytes(inode, 0, None, 2 * volumes[0].block_size)
        (first, count), = inode.extents
        assert inode.block_runs(1, 4) == (
            [range(first + 1, first + 2)]
            + [range(first + count, first + count + 1)] * 3)
        assert inode.block_runs(3, 2) == []
        assert inode.block_runs(0, 1) == [range(first, first + count)]

    def test_data_path_touches_the_same_pages_in_the_same_order(self):
        rng = random.Random(15)
        volume, inodes = self.fragmented(rng)
        while not all(len(inode.extents) > 1 for inode in inodes):
            volume, inodes = self.fragmented(rng)
        size = volume.block_size
        for inode in inodes:
            # Overwrite from mid-block 0 to mid-way into the last block.
            end = inode.size - size // 2
            volume.write_bytes(inode, size // 2, None, end - size // 2)
            expected = [(volume.volume_id, inode.block_for(logical * size))
                        for logical in range((end - 1) // size + 1)]
            assert (list(volume.cache.lru_order())[-len(expected):]
                    == expected)
            volume.cache.invalidate_volume(volume.volume_id)
            before = volume.disk.bytes_read
            volume.read_bytes(inode, 0, inode.size)
            assert volume.disk.bytes_read - before == size * len(
                {inode.block_for(logical * size)
                 for logical in range(-(-inode.size // size))})
