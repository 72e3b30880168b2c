"""Unit tests for the analyzer: dedup and cycle avoidance."""

from repro.core.analyzer import Analyzer, ProtoRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord


class FakeObject:
    """Minimal freezable object."""

    def __init__(self, pnode):
        self.pnode = pnode
        self.version = 0

    def ref(self):
        return ObjectRef(self.pnode, self.version)


def make_analyzer():
    out = []
    analyzer = Analyzer(emit=out.append, emit_batch=out.extend)
    return analyzer, out


def edges(records):
    return [(r.subject, r.value) for r in records if r.is_ancestry]


class TestDedup:
    def test_identical_records_collapse(self):
        analyzer, out = make_analyzer()
        proc, file_ = FakeObject(1), FakeObject(2)
        for _ in range(10):
            analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_.ref()))
        assert len(out) == 1
        assert analyzer.duplicates_dropped == 9

    def test_different_attrs_not_deduped(self):
        analyzer, out = make_analyzer()
        obj = FakeObject(1)
        analyzer.submit(ProtoRecord(obj, Attr.NAME, "a"))
        analyzer.submit(ProtoRecord(obj, Attr.TYPE, "a"))
        assert len(out) == 2

    def test_dedup_scope_is_one_version(self):
        analyzer, out = make_analyzer()
        proc, file_ = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_.ref()))
        analyzer.freeze(proc)
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_.ref()))
        # Same logical statement about a *new* version is a new record.
        assert len(edges(out)) == 3  # input, prev_version, input

    def test_new_version_of_value_is_new_record(self):
        analyzer, out = make_analyzer()
        proc, file_ = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_.ref()))
        file_.version += 1
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_.ref()))
        assert len(out) == 2


class TestCycleAvoidance:
    def test_read_then_write_back_freezes(self):
        """P reads A, P writes A: writing into the version P read would
        make A:0 -> P -> A:0; the analyzer must freeze A first."""
        analyzer, out = make_analyzer()
        proc, file_a = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_a.ref()))
        analyzer.submit(ProtoRecord(file_a, Attr.INPUT, proc.ref()))
        assert file_a.version == 1
        assert analyzer.freezes == 1

    def test_write_then_read_back_freezes_process(self):
        """P writes A then reads it back: P's current version would
        depend on A which depends on P -- P gets a new version."""
        analyzer, out = make_analyzer()
        proc, file_a = FakeObject(1), FakeObject(2)
        analyzer.submit(ProtoRecord(file_a, Attr.INPUT, proc.ref()))
        analyzer.submit(ProtoRecord(proc, Attr.INPUT, file_a.ref()))
        assert proc.version == 1

    def test_two_process_file_pingpong_stays_acyclic(self):
        """The classic concurrent scenario: P and Q alternately read the
        file the other writes.  Versions must keep the graph acyclic."""
        analyzer, out = make_analyzer()
        p, q = FakeObject(1), FakeObject(2)
        a, b = FakeObject(3), FakeObject(4)
        for _ in range(4):
            analyzer.submit(ProtoRecord(p, Attr.INPUT, a.ref()))
            analyzer.submit(ProtoRecord(b, Attr.INPUT, p.ref()))
            analyzer.submit(ProtoRecord(q, Attr.INPUT, b.ref()))
            analyzer.submit(ProtoRecord(a, Attr.INPUT, q.ref()))
        assert_acyclic(out)

    def test_self_reference_to_older_version_allowed(self):
        analyzer, out = make_analyzer()
        file_a = FakeObject(1)
        analyzer.freeze(file_a)
        # A:1 depends on A:0 -- legitimate (that is what freeze created).
        analyzer.submit(ProtoRecord(file_a, Attr.INPUT, ObjectRef(1, 0)))
        assert file_a.version == 1     # no extra freeze

    def test_self_reference_to_current_version_freezes(self):
        analyzer, out = make_analyzer()
        file_a = FakeObject(1)
        analyzer.submit(ProtoRecord(file_a, Attr.INPUT, file_a.ref()))
        assert file_a.version == 1
        assert_acyclic(out)

    def test_freeze_emits_prev_version_edge(self):
        analyzer, out = make_analyzer()
        obj = FakeObject(1)
        analyzer.freeze(obj)
        prev = [r for r in out if r.attr == Attr.PREV_VERSION]
        assert prev == [ProvenanceRecord(ObjectRef(1, 1),
                                         Attr.PREV_VERSION, ObjectRef(1, 0))]

    def test_on_freeze_hook_fires(self):
        analyzer, _ = make_analyzer()
        seen = []
        analyzer.on_freeze = lambda obj, version: seen.append((obj.pnode,
                                                               version))
        obj = FakeObject(9)
        analyzer.freeze(obj)
        assert seen == [(9, 1)]

    def test_transitive_cycle_detected_via_local_sets(self):
        """A -> P -> B -> Q; then Q writes A.  A:0 was observed by P
        (the local rule; no transitive state), so A is frozen first."""
        analyzer, out = make_analyzer()
        p, q = FakeObject(1), FakeObject(2)
        a, b = FakeObject(3), FakeObject(4)
        analyzer.submit(ProtoRecord(p, Attr.INPUT, a.ref()))      # P <- A
        analyzer.submit(ProtoRecord(b, Attr.INPUT, p.ref()))      # B <- P
        analyzer.submit(ProtoRecord(q, Attr.INPUT, b.ref()))      # Q <- B
        analyzer.submit(ProtoRecord(a, Attr.INPUT, q.ref()))      # A <- Q !
        assert a.version == 1
        assert_acyclic(out)

    def test_independent_objects_never_freeze(self):
        analyzer, out = make_analyzer()
        proc = FakeObject(1)
        for pnode in range(2, 50):
            analyzer.submit(ProtoRecord(proc, Attr.INPUT,
                                        FakeObject(pnode).ref()))
        assert analyzer.freezes == 0


class TestFinalizedRecords:
    def test_prefinalized_record_passes_through(self):
        analyzer, out = make_analyzer()
        record = ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "wire")
        analyzer.submit(record)
        assert out == [record]

    def test_prefinalized_record_deduped(self):
        analyzer, out = make_analyzer()
        record = ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "wire")
        analyzer.submit(record)
        analyzer.submit(record)
        assert len(out) == 1


class TestRegistry:
    def test_register_and_lookup(self):
        analyzer, _ = make_analyzer()
        obj = FakeObject(42)
        analyzer.register(obj)
        assert analyzer.lookup(42) is obj

    def test_forget(self):
        analyzer, _ = make_analyzer()
        obj = FakeObject(42)
        analyzer.register(obj)
        analyzer.forget(42)
        assert analyzer.lookup(42) is None


def held_entries(analyzer):
    """Entries in the analyzer's own containers, one level deep."""
    total = 0
    for container in vars(analyzer).values():
        if isinstance(container, (dict, set)):
            total += len(container)
            if isinstance(container, dict):
                total += sum(len(inner) for inner in container.values()
                             if isinstance(inner, (dict, set, list)))
    return total


def disclose_chain(depth):
    """``depth`` objects, each named and depending on the one before."""
    analyzer = Analyzer(emit=lambda record: None,
                        emit_batch=lambda batch: None)
    objects = [FakeObject(pnode) for pnode in range(1, depth + 1)]
    protos = []
    for index, obj in enumerate(objects):
        analyzer.register(obj)
        protos.append(ProtoRecord(obj, Attr.NAME, f"step{index}"))
        if index:
            protos.append(ProtoRecord(obj, Attr.INPUT,
                                      objects[index - 1].ref()))
    analyzer.submit_batch(protos)
    assert analyzer.freezes == 0
    return analyzer


class TestStateGrowth:
    def test_state_is_linear_in_records_not_chain_depth(self):
        """A count, not a timing: per-object transitive structures
        (ancestor sets) hold depth**2 / 2 entries on a chain."""
        depth = 200
        shallow = disclose_chain(depth)
        deep = disclose_chain(2 * depth)
        assert held_entries(shallow) <= 4 * shallow.records_in
        assert held_entries(deep) <= 4 * deep.records_in
        assert held_entries(deep) <= 2 * held_entries(shallow) + 4


def assert_acyclic(records):
    """The emitted ancestry edges over (pnode, version) must be a DAG."""
    graph = {}
    for record in records:
        if record.is_ancestry:
            graph.setdefault(record.subject, []).append(record.value)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}

    def visit(node):
        color[node] = GRAY
        for child in graph.get(node, ()):
            state = color.get(child, WHITE)
            if state == GRAY:
                raise AssertionError(f"cycle through {child}")
            if state == WHITE:
                visit(child)
        color[node] = BLACK

    for node in list(graph):
        if color.get(node, WHITE) == WHITE:
            visit(node)
