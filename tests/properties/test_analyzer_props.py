"""Property-based tests: the analyzer's core invariants.

The central claim of section 5.4 is that cycle avoidance, operating on
purely local information, keeps the provenance graph over
(pnode, version) nodes acyclic -- for *any* stream of dependency events.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.analyzer import Analyzer, ProtoRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr

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
