"""Unit tests for the analyzer: dedup and cycle avoidance."""

import math

import pytest

from repro.core.analyzer import Analyzer, ProtoRecord, ProtoRun
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.system import System
from tests.conftest import held_count, held_keys


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
        assert analyzer._registry.get(42) is obj

    def test_forget(self):
        analyzer, _ = make_analyzer()
        obj = FakeObject(42)
        analyzer.register(obj)
        analyzer.forget(42)
        assert analyzer._registry.get(42) is None


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

    def test_dedup_state_flat_under_freeze_churn(self):
        """Keys of versions a freeze superseded are swept: after warm-up
        the held keys, flat and grouped, stay within twice the live
        versions' keys plus the sweep floor and one round, at N rounds
        and at 2N, while a reference that never sweeps grows with the
        records.  Sweeping changes no admitted record and no counter."""
        rounds = 400
        analyzer, out, sizes = soak(2 * rounds)
        reference, expected, _ = soak(2 * rounds, sweeps=False)
        live = live_versions(analyzer)
        live_keys = sum(key[0] in live for key in held_keys(analyzer))
        bound = 2 * live_keys + SWEEP_FLOOR + 200
        assert sizes[rounds - 1] <= bound and sizes[-1] <= bound
        assert held_count(reference) > bound
        assert analyzer.dedup_sweeps >= 1
        assert len(analyzer._observed) <= len(analyzer._registry)
        assert analyzer.duplicates_dropped == reference.duplicates_dropped
        assert analyzer.duplicates_dropped > 0
        assert analyzer.freezes == reference.freezes == 4 * rounds - 1
        assert canonical(out) == canonical(expected)

    def test_both_admission_paths_sweep_alike(self):
        """Past the sweep floor, with freezes inside batches and late
        finalized records about superseded versions: ``submit`` per
        record and ``submit_batch`` emit the same stream and end with
        the same held keys and ``_observed``."""
        stream = sweep_stream(rounds=300)
        reference, expected = admit(stream, chunk=None)
        analyzer, out = admit(stream, chunk=7)
        assert reference.dedup_sweeps >= 1
        assert analyzer.dedup_sweeps == reference.dedup_sweeps
        assert out == expected
        assert held_keys(analyzer) == held_keys(reference)
        assert analyzer._observed == reference._observed
        assert held_count(analyzer) < analyzer.records_out
        for counter in ("records_in", "records_out", "duplicates_dropped",
                        "freezes", "cycle_breaks"):
            assert getattr(analyzer, counter) == getattr(reference, counter)

    def test_forget_sweeps_keys_and_keeps_observed(self):
        """A forgotten object's keys go at the next sweep; its version
        stays observed, so writing an unlinked file that is still open
        freezes it first."""
        analyzer, out = make_analyzer()
        gone, reader, churn = FakeObject(1), FakeObject(2), FakeObject(3)
        for obj in (gone, reader, churn):
            analyzer.register(obj)
        analyzer.submit(ProtoRecord(gone, Attr.NAME, "tmp"))
        analyzer.submit(ProtoRecord(reader, Attr.INPUT, gone.ref()))
        analyzer.forget(gone.pnode)
        analyzer.submit_batch([ProtoRun(churn, Attr.ANNOTATION,
                                        list(map(str, range(SWEEP_FLOOR))))])
        analyzer.freeze(churn)
        assert analyzer.dedup_sweeps == 1
        assert not any(key[0] in (1 << 32, 3 << 32)
                       for key in held_keys(analyzer))
        admitted = analyzer.records_out
        analyzer.submit(ProtoRecord(gone, Attr.NAME, "tmp"))
        assert analyzer.records_out == admitted + 1
        analyzer.submit(ProtoRecord(gone, Attr.INPUT, reader.ref()))
        assert gone.version == 1
        assert_acyclic(out)

    def test_counters_report_sweep_state(self):
        analyzer, _ = make_analyzer()
        obj = FakeObject(1)
        analyzer.submit(ProtoRecord(obj, Attr.NAME, "a"))
        analyzer.freeze(obj)
        counters = analyzer._obs_counters()
        assert counters["seen_keys"] == 2
        assert counters["dead_versions_pending"] == 1
        assert counters["dedup_sweeps"] == 0


class TestRunGroups:
    """Keys of bulk runs of plain values are held as values grouped per
    version and (attribute, exact class), beside the flat keys."""

    def test_dead_versions_groups_go_with_its_flat_keys(self):
        """A superseded version's groups stay until the sweep that drops
        its flat keys, and go at that sweep.  A late finalized record
        (the NFS wire) about a swept bulk key is admitted once more,
        as it is for a swept flat key."""
        analyzer, out = make_analyzer()
        file_, churn = FakeObject(1), FakeObject(2)
        for obj in (file_, churn):
            analyzer.register(obj)
        analyzer.submit_batch([ProtoRun(file_, Attr.ANNOTATION, ["a", "b"]),
                               ProtoRecord(file_, Attr.NAME, "f")])
        analyzer.freeze(file_)
        late = [ProvenanceRecord(ObjectRef(1, 0), Attr.ANNOTATION, "a"),
                ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "f")]
        analyzer.submit_many(late)
        assert analyzer.duplicates_dropped == 2
        assert 1 << 32 in analyzer._runs
        assert (1 << 32, Attr.NAME, "f") in analyzer._seen
        analyzer.submit_batch([ProtoRun(churn, Attr.ANNOTATION,
                                        list(map(str, range(SWEEP_FLOOR))))])
        analyzer.freeze(churn)
        assert analyzer.dedup_sweeps == 1
        assert list(analyzer._runs) == []
        assert not any(key[0] in (1 << 32, 2 << 32)
                       for key in held_keys(analyzer))
        admitted = len(out)
        analyzer.submit_many(late)
        assert out[admitted:] == late
        assert analyzer.duplicates_dropped == 2
        assert {(1 << 32, Attr.ANNOTATION, "a"),
                (1 << 32, Attr.NAME, "f")} <= analyzer._seen

    @pytest.mark.parametrize("run_first", [True, False])
    @pytest.mark.parametrize("chunk", [None, 1, 4])
    def test_equal_values_of_other_classes_stay_apart(self, run_first,
                                                      chunk):
        """``1``, ``True`` and ``1.0`` are equal and hash alike yet are
        three record values, whether a run or a single record holds
        the key first, on both admission paths."""
        file_ = FakeObject(1)
        runs = [ProtoRun(file_, Attr.NAME, [1, 2, 1]),
                ProtoRun(file_, Attr.NAME, [True, False]),
                ProtoRun(file_, Attr.NAME, [1.0, 2.0])]
        before = (True, 1.0) if not run_first else ()
        after = (True, 1.0, 1, 2, False, 2.0, 1.0)[len(before):]
        stream = ([ProtoRecord(file_, Attr.NAME, value) for value in before]
                  + runs
                  + [ProtoRecord(file_, Attr.NAME, value) for value in after])
        reference, expected = make_analyzer()
        for item in stream:
            reference.submit_many(item if type(item) is ProtoRun else [item])
        analyzer, out = make_analyzer()
        if chunk is None:
            for item in stream:
                if type(item) is ProtoRun:
                    analyzer.submit_batch([item])
                else:
                    analyzer.submit(item)
        else:
            for start in range(0, len(stream), chunk):
                analyzer.submit_batch(stream[start:start + chunk])
        assert [(type(record.value), record.value) for record in out] == [
            (type(record.value), record.value) for record in expected]
        assert sorted(map(repr, (record.value for record in out))) == [
            "1", "1.0", "2", "2.0", "False", "True"]
        assert analyzer._runs
        assert held_keys(analyzer) == held_keys(reference)
        assert analyzer.duplicates_dropped == reference.duplicates_dropped


#: Held keys below which the analyzer never sweeps.
SWEEP_FLOOR = 1 << 16


def live_versions(analyzer):
    """Version ints (a key's first slot) current for a registered object."""
    return {obj.pnode << 32 | obj.version
            for obj in analyzer._registry.values()}


def canonical(records):
    """``(subject, attr, value)`` with pnodes renumbered by first
    appearance: two systems booted in one process allocate different
    volume ids."""
    ids = {}

    def plain(value):
        if isinstance(value, ObjectRef):
            return ids.setdefault(value.pnode, len(ids)), value.version
        return value

    return [(plain(record.subject), record.attr, plain(record.value))
            for record in records]


def soak(rounds, sweeps=True):
    """``rounds`` rounds of churn through a booted system: a writer
    writes a file twice and discloses 100 annotations (10 of them a
    second time), then a second process overwrites the file, which
    freezes it.  Returns the analyzer, what it emitted and the keys it
    held after each round; ``sweeps=False`` is a reference that keeps every
    key."""
    system = System.boot()
    analyzer = system.kernel.analyzer
    if not sweeps:
        analyzer._sweep_at = math.inf
    out = []
    emit, emit_batch = analyzer._emit, analyzer._emit_batch

    def tap(record):
        out.append(record)
        emit(record)

    def tap_batch(batch):
        out.extend(batch)
        emit_batch(batch)

    analyzer._emit, analyzer._emit_batch = tap, tap_batch
    sizes = []
    with system.process(argv=["writer"]) as writer, \
            system.process(argv=["rewriter"]) as rewriter:
        for index in range(rounds):
            fd = writer.open("/pass/soak", "w")
            writer.write(fd, b"a" * 64)
            writer.write(fd, b"a" * 64)
            values = [f"r{index}.k{key}" for key in range(100)]
            for disclosed in (values, values[:10]):
                writer.dpapi.pass_write(fd, records=writer.dpapi.record_many(
                    fd, Attr.ANNOTATION, disclosed))
            writer.close(fd)
            fd = rewriter.open("/pass/soak", "w")
            rewriter.write(fd, b"over")
            rewriter.close(fd)
            sizes.append(held_count(analyzer))
    return analyzer, out, sizes


def sweep_stream(rounds):
    """Items about 8 objects, ~250 keys a round: a run of annotations
    (then ten of them again), an int NAME, a self-reference that
    freezes the subject, a cross-reference, and a finalized record
    about the subject's first version."""
    stream = []
    for index in range(rounds):
        pnode = index % 8 + 1
        values = [f"r{index}.k{key}" for key in range(240)]
        stream += [("run", pnode, Attr.ANNOTATION, values),
                   ("run", pnode, Attr.ANNOTATION, values[::24]),
                   ("proto", pnode, Attr.NAME, index % 5),
                   ("proto", pnode, Attr.INPUT, ObjectRef(pnode, 1 << 20)),
                   ("proto", pnode, Attr.INPUT, ObjectRef(pnode % 8 + 1, 0)),
                   ("final", ObjectRef(pnode, 0), Attr.NAME,
                    f"late{index % 3}")]
    return stream


def admit(stream, chunk):
    """``chunk`` None: ``submit`` per record, runs expanded.  Otherwise
    ``submit_batch`` per ``chunk`` items, runs riding whole."""
    analyzer, out = make_analyzer()
    objects = {pnode: FakeObject(pnode) for pnode in range(1, 9)}

    def shaped(kind, subject, attr, value):
        if kind == "final":
            return [ProvenanceRecord(subject, attr, value)]
        if kind == "proto":
            return [ProtoRecord(objects[subject], attr, value)]
        run = ProtoRun(objects[subject], attr, value)
        return [run] if chunk else list(run)

    if chunk is None:
        for item in stream:
            analyzer.submit_many(shaped(*item))
    else:
        for start in range(0, len(stream), chunk):
            analyzer.submit_batch([
                proto for item in stream[start:start + chunk]
                for proto in shaped(*item)])
    return analyzer, out


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
