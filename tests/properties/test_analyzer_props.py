"""Property-based tests: the analyzer's core invariants.

The central claim of section 5.4 is that cycle avoidance, operating on
purely local information, keeps the provenance graph over
(pnode, version) nodes acyclic -- for *any* stream of dependency events.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.analyzer import Analyzer, ProtoRecord, ProtoRun
from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from tests.conftest import held_keys

N_OBJECTS = 6


class Obj:
    def __init__(self, pnode):
        self.pnode = pnode
        self.version = 0

    def ref(self):
        return ObjectRef(self.pnode, self.version)


#: An event is "subject S records a dependency on object V".
events = st.lists(
    st.tuples(st.integers(0, N_OBJECTS - 1), st.integers(0, N_OBJECTS - 1)),
    max_size=60,
)


def run_stream(stream, batch=None):
    """Feed the events through ``submit`` (``batch`` None) or through
    ``submit_batch`` in chunks of ``batch`` events; a chunk's value refs
    are the versions current when the chunk is built, as a DPAPI caller
    would disclose them."""
    out = []
    analyzer = Analyzer(emit=out.append, emit_batch=out.extend)
    objects = [Obj(pnode) for pnode in range(1, N_OBJECTS + 1)]
    if batch is None:
        for subject_index, value_index in stream:
            subject = objects[subject_index]
            value = objects[value_index]
            analyzer.submit(ProtoRecord(subject, Attr.INPUT, value.ref()))
    else:
        for start in range(0, len(stream), batch):
            analyzer.submit_batch([
                ProtoRecord(objects[subject_index], Attr.INPUT,
                            objects[value_index].ref())
                for subject_index, value_index
                in stream[start:start + batch]])
    return analyzer, objects, out


#: None is the per-record ``submit`` path; the ints are chunk sizes.
paths = st.sampled_from([None, 1, 5, 60])


def assert_acyclic(records):
    graph = {}
    for record in records:
        if record.is_ancestry:
            graph.setdefault(record.subject, []).append(record.value)
    state = {}

    def visit(node):
        state[node] = 1
        for child in graph.get(node, ()):
            code = state.get(child, 0)
            assert code != 1, f"cycle through {child}"
            if code == 0:
                visit(child)
        state[node] = 2

    for node in list(graph):
        if state.get(node, 0) == 0:
            visit(node)


@given(events)
@settings(max_examples=400)
def test_graph_always_acyclic(stream):
    _, _, out = run_stream(stream)
    assert_acyclic(out)


@given(events)
@settings(max_examples=300)
def test_versions_monotonic_and_linked(stream):
    """Every version > 0 must carry a PREV_VERSION edge to version-1."""
    _, objects, out = run_stream(stream)
    prev_edges = {(r.subject.pnode, r.subject.version)
                  for r in out if r.attr == Attr.PREV_VERSION}
    for obj in objects:
        for version in range(1, obj.version + 1):
            assert (obj.pnode, version) in prev_edges


@given(events)
@settings(max_examples=300)
def test_dedup_never_drops_distinct_statements(stream):
    """Replaying the admitted records through a fresh analyzer changes
    nothing: the output is already duplicate-free and stable."""
    _, _, out = run_stream(stream)
    replay_out = []
    replayer = Analyzer(emit=replay_out.append,
                        emit_batch=replay_out.extend)
    for record in out:
        replayer.submit(record)
    assert replay_out == out


@given(events)
@settings(max_examples=300)
def test_counters_consistent(stream):
    analyzer, _, out = run_stream(stream)
    assert analyzer.records_out == len(out)
    assert analyzer.records_in == len(stream)
    # Every submitted record was either admitted or deduplicated, and
    # each freeze contributed exactly one extra PREV_VERSION record.
    assert (analyzer.records_out
            == len(stream) - analyzer.duplicates_dropped
            + analyzer.freezes)
    prev_edges = sum(1 for r in out if r.attr == Attr.PREV_VERSION)
    assert prev_edges == analyzer.freezes


@given(events, paths)
@settings(max_examples=400)
def test_observed_versions_immutable(stream, batch):
    """The local rule cycle avoidance rests on, checked on the emitted
    stream of both admission paths: once a version has appeared as the
    value of an ancestry record it never again appears as the subject
    of one -- and so the (pnode, version) graph is acyclic."""
    _, _, out = run_stream(stream, batch)
    observed = set()
    for record in out:
        if record.is_ancestry:
            assert record.subject not in observed, record
            observed.add(record.value)
    assert_acyclic(out)


# -- one stream, three shapes: ProtoRecord, finalized record, ProtoRun -----------


class Tag(str):
    """A str subclass: a run holding one is not bulk-admissible."""


#: Few plain values, so duplicates are common -- within a run, across
#: batches, across shapes; ``1``/``True``/``1.0`` are equal and hash
#: alike yet are three different record values.
plain_values = st.sampled_from(["a", "b", "c", 1, True, 1.0, 2, b"a",
                                Tag("a")])
#: Cross-references by explicit (object, version), so both admission
#: paths are fed the same values whatever has been frozen meanwhile;
#: naming the subject itself at a version not yet superseded is the
#: self-reference that forces a freeze.
ref_values = st.builds(ObjectRef, st.integers(1, N_OBJECTS),
                       st.integers(0, 2))
attr_names = st.sampled_from([Attr.ANNOTATION, Attr.NAME, Attr.INPUT])
subject_indexes = st.integers(0, N_OBJECTS - 1)

items = st.one_of(
    st.tuples(st.just("proto"), subject_indexes, attr_names,
              st.one_of(plain_values, ref_values)),
    st.tuples(st.just("final"), ref_values, attr_names,
              st.one_of(plain_values, ref_values)),
    # Uniform runs (bulk-admissible when plain) and mixed ones.
    st.tuples(st.just("run"), subject_indexes, attr_names,
              st.one_of(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                 max_size=8),
                        st.lists(st.sampled_from([1, 2, 3]), max_size=5),
                        st.lists(ref_values, max_size=5),
                        st.lists(plain_values, max_size=6))),
)


#: A proto no path may admit: a value of no record type, or an
#: attribute name past the 255 UTF-8 bytes the log can frame.
invalid = st.one_of(
    st.tuples(st.just("proto"), subject_indexes, attr_names,
              st.just(object())),
    st.tuples(st.just("proto"), subject_indexes,
              st.sampled_from(["A" * 256, "é" * 128]), plain_values))


def _shaped(item, objects, expand):
    kind, subject, attr, value = item
    if kind == "final":
        return [ProvenanceRecord(subject, attr, value)]
    if kind == "proto":
        return [ProtoRecord(objects[subject], attr, value)]
    run = ProtoRun(objects[subject], attr, list(value))
    return list(run) if expand else [run]


def _admit_stream(stream, chunk, dedup):
    """``chunk`` None: ``submit`` per record, runs expanded (the
    reference).  Otherwise ``submit_batch`` per ``chunk`` items, runs
    riding as one item each.  Stops at the first ``InvalidRecord``;
    returns whether one was raised too."""
    out = []
    analyzer = Analyzer(emit=out.append, emit_batch=out.extend)
    analyzer.dedup_enabled = dedup
    objects = [Obj(pnode) for pnode in range(1, N_OBJECTS + 1)]
    try:
        if chunk is None:
            for item in stream:
                for proto in _shaped(item, objects, expand=True):
                    analyzer.submit(proto)
        else:
            for start in range(0, len(stream), chunk):
                analyzer.submit_batch([
                    proto for item in stream[start:start + chunk]
                    for proto in _shaped(item, objects, expand=False)])
    except InvalidRecord:
        return analyzer, objects, out, True
    return analyzer, objects, out, False


@given(st.lists(items, max_size=30), st.sampled_from([1, 2, 7, 30]),
       st.booleans(), st.none() | st.tuples(st.integers(0, 30), invalid))
@settings(max_examples=500)
def test_mixed_batches_admit_what_submit_admits(stream, chunk, dedup, bad):
    """ProtoRecords, finalized records and ProtoRuns in one batch: the
    emitted rows, their order, every counter, the held dedup keys (none
    of them in both stores) and the versions the objects end on equal
    ``submit`` over the expanded stream -- with duplicates inside a run,
    against earlier batches and against one-record batches, with dedup
    on and off, and with freezes landing in the middle of a run.
    ``bad`` puts an invalid proto at a random position: both paths raise
    there, having emitted the same prefix and kept nothing of the
    invalid proto."""
    if bad is not None:
        position, proto = bad
        stream = stream[:position] + [proto] + stream[position:]
    reference, ref_objects, expected, raised = _admit_stream(
        stream, None, dedup)
    analyzer, objects, out, batch_raised = _admit_stream(stream, chunk, dedup)
    assert raised == batch_raised == (bad is not None)
    assert out == expected
    assert ([obj.version for obj in objects]
            == [obj.version for obj in ref_objects])
    # held_keys also asserts that no key sits in both stores.
    assert held_keys(analyzer) == held_keys(reference)
    assert analyzer._observed == reference._observed
    counters = ["records_out", "duplicates_dropped", "freezes",
                "cycle_breaks"]
    if not raised:          # a batch counts its protos in up front
        counters.append("records_in")
    for counter in counters:
        assert getattr(analyzer, counter) == getattr(reference, counter), \
            counter
    assert analyzer.records_out == len(out)
