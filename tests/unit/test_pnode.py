"""Unit tests for pnode numbers and object identity."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.dpapi import PassObject
from repro.core.pnode import (
    TRANSIENT_VOLUME,
    ObjectRef,
    PnodeAllocator,
    local_of,
    make_pnode,
    volume_of,
)
from repro.kernel.process import Pipe, Process
from repro.kernel.vfs import Inode
from repro.system import System


class TestMakePnode:
    def test_roundtrip_volume_and_local(self):
        pnode = make_pnode(7, 123)
        assert volume_of(pnode) == 7
        assert local_of(pnode) == 123

    def test_distinct_volumes_never_collide(self):
        assert make_pnode(1, 5) != make_pnode(2, 5)

    def test_transient_volume_is_zero(self):
        assert volume_of(make_pnode(TRANSIENT_VOLUME, 9)) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_pnode(-1, 1)
        with pytest.raises(ValueError):
            make_pnode(1, -1)

    def test_rejects_counter_overflow(self):
        with pytest.raises(ValueError):
            make_pnode(1, 1 << 40)


class TestPnodeAllocator:
    def test_monotonic_and_unique(self):
        alloc = PnodeAllocator(3)
        issued = [alloc.allocate() for _ in range(100)]
        assert len(set(issued)) == 100
        assert issued == sorted(issued)

    def test_first_local_counter_is_one(self):
        alloc = PnodeAllocator(3)
        assert local_of(alloc.allocate()) == 1

    def test_volume_id_embedded(self):
        alloc = PnodeAllocator(5)
        assert volume_of(alloc.allocate()) == 5

    def test_restore_moves_forward_only(self):
        alloc = PnodeAllocator(1)
        alloc.allocate()
        alloc.restore(10)
        assert local_of(alloc.allocate()) == 10
        with pytest.raises(ValueError):
            alloc.restore(2)

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            PnodeAllocator(1, start=0)


class TestObjectRef:
    def test_is_a_tuple(self):
        ref = ObjectRef(10, 2)
        assert ref == (10, 2)
        assert ref.pnode == 10
        assert ref.version == 2

    def test_str_form(self):
        assert str(ObjectRef(10, 2)) == "10:2"

    def test_volume_id_property(self):
        ref = ObjectRef(make_pnode(4, 77), 0)
        assert ref.volume_id == 4

    def test_hashable_and_distinct_by_version(self):
        assert len({ObjectRef(1, 0), ObjectRef(1, 1)}) == 2


class TestRefIdentity:
    """One ObjectRef per object version: ``ref()`` hands back the
    instance it minted while (pnode, version) still match, and a new
    one the moment either field moves."""

    @staticmethod
    def objects():
        return [Inode(None, 1, Inode.FILE, pnode=11),
                Pipe(12),
                Process(None, 1, 0, 13, ["sh"], {}),
                PassObject(14)]

    def test_same_version_same_instance(self):
        for obj in self.objects():
            ref = obj.ref()
            assert ref is obj.ref(), type(obj).__name__
            assert ref == (obj.pnode, obj.version)

    def test_new_instance_after_freeze(self):
        system = System.boot()
        with system.process() as proc:
            fd = proc.dpapi.pass_mkobj()
            before = proc.dpapi.ref_of(fd)
            proc.dpapi.pass_freeze(fd)
            after = proc.dpapi.ref_of(fd)
            assert after is not before
            assert after == (before.pnode, before.version + 1)
            assert proc.dpapi.ref_of(fd) is after

    def test_new_instance_after_adopt(self):
        system = System.boot()
        inode = Inode(None, 1, Inode.FILE)          # pnode 0: not adopted
        unassigned = inode.ref()
        assert unassigned == (0, 0)
        system.kernel.observer.adopt(inode)
        adopted = inode.ref()
        assert adopted is not unassigned
        assert adopted.pnode == inode.pnode != 0
        assert volume_of(adopted.pnode) == TRANSIENT_VOLUME
        assert inode.ref() is adopted


@given(st.lists(st.one_of(st.just("ref"),
                          st.tuples(st.sampled_from(["pnode", "version"]),
                                    st.integers(0, 3))),
                max_size=40))
def test_interleaved_bumps_never_see_a_stale_ref(steps):
    """Assign pnode/version in any order, call ``ref()`` in between:
    every ref names the fields as they are now, and a ref survives
    exactly as long as the fields it names."""
    for obj in TestRefIdentity.objects():
        last = None
        for step in steps:
            if step == "ref":
                ref = obj.ref()
                assert ref == (obj.pnode, obj.version)
                assert (ref is last) == (last is not None and last == ref)
                last = ref
            else:
                setattr(obj, *step)
