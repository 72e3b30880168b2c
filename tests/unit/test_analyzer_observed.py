"""Unit tests pinning the observed-version immutability rule.

The property suite fuzzes the invariant; these tests document the exact
behaviors (including the counterexample hypothesis originally found).
"""

from repro.core.analyzer import Analyzer, ProtoRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr
from tests.unit.test_analyzer import FakeObject, assert_acyclic


def make():
    out = []
    return Analyzer(emit=out.append, emit_batch=out.extend), out


class TestObservedRule:
    def test_retroactive_ancestry_counterexample(self):
        """The stream hypothesis found against the ancestor-set-only
        formulation: 3<-2, 2<-1, 1<-3 must freeze rather than cycle."""
        analyzer, out = make()
        one, two, three = FakeObject(1), FakeObject(2), FakeObject(3)
        analyzer.submit(ProtoRecord(three, Attr.INPUT, two.ref()))
        analyzer.submit(ProtoRecord(two, Attr.INPUT, one.ref()))
        analyzer.submit(ProtoRecord(one, Attr.INPUT, three.ref()))
        assert_acyclic(out)
        # 'two' gained ancestry after 'three' observed it -> new version.
        assert two.version == 1
        # 'one' was observed by two:1 -> its own edge starts version 1.
        assert one.version == 1

    def test_unobserved_object_accumulates_freely(self):
        analyzer, out = make()
        subject = FakeObject(1)
        for pnode in range(2, 12):
            analyzer.submit(ProtoRecord(subject, Attr.INPUT,
                                        ObjectRef(pnode, 0)))
        assert subject.version == 0
        assert analyzer.freezes == 0

    def test_observation_pins_the_version(self):
        analyzer, out = make()
        producer, consumer = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(producer, Attr.INPUT,
                                    ObjectRef(9, 0)))
        # Someone depends on producer's current version...
        analyzer.submit(ProtoRecord(consumer, Attr.INPUT, producer.ref()))
        # ...so its next dependency starts a new version.
        analyzer.submit(ProtoRecord(producer, Attr.INPUT,
                                    ObjectRef(10, 0)))
        assert producer.version == 1
        # The new version still links back to the old.
        prev = [r for r in out if r.attr == Attr.PREV_VERSION]
        assert prev[0].subject == ObjectRef(1, 1)
        assert prev[0].value == ObjectRef(1, 0)

    def test_version_edges_land_on_new_version(self):
        analyzer, out = make()
        producer, consumer = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(consumer, Attr.INPUT, producer.ref()))
        analyzer.submit(ProtoRecord(producer, Attr.INPUT,
                                    ObjectRef(7, 0)))
        new_edges = [r for r in out if r.attr == Attr.INPUT
                     and r.subject.pnode == 1]
        assert new_edges[0].subject.version == 1

    def test_repeated_observation_no_extra_freezes(self):
        analyzer, out = make()
        producer = FakeObject(1)
        for consumer_pnode in range(2, 6):
            consumer = FakeObject(consumer_pnode)
            analyzer.submit(ProtoRecord(consumer, Attr.INPUT,
                                        producer.ref()))
        # Observation alone never freezes; only new outgoing ancestry.
        assert producer.version == 0
        analyzer.submit(ProtoRecord(producer, Attr.INPUT,
                                    ObjectRef(9, 0)))
        assert producer.version == 1
        assert analyzer.freezes == 1
