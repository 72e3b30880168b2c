"""Incremental == batch: OEMGraph.apply vs OEMGraph.build.

The live query path only works if a graph grown one record at a time is
indistinguishable from one batch-built over the same stream.  These
properties drive randomly generated record streams (framing, identity
atoms, cross-references, version churn, arbitrary arrival order) through
both paths and compare the full observable surface: nodes, atoms, edges
in both directions, Provenance members, the name index, and actual
query results.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.oem import OEMGraph
from tests.conftest import graph_fingerprint

refs = st.builds(ObjectRef,
                 pnode=st.integers(1, 6),
                 version=st.integers(0, 3))

#: Identity, plain, framing, and edge attributes all mixed together.
attrs = st.sampled_from([Attr.NAME, Attr.TYPE, Attr.ARGV, Attr.PID,
                         Attr.MD5, Attr.TIME, Attr.ANNOTATION,
                         Attr.BEGINTXN, Attr.ENDTXN])
edge_attrs = st.sampled_from([Attr.INPUT, Attr.PREV_VERSION,
                              Attr.FORKPARENT, Attr.EXEC])

plain_values = st.one_of(
    st.sampled_from(["/pass/a", "/pass/b", "file", "process", "sh"]),
    st.integers(0, 99),
    st.text(st.characters(codec="ascii", exclude_characters="\0"),
            max_size=8))

records = st.one_of(
    st.builds(ProvenanceRecord, subject=refs, attr=attrs,
              value=plain_values),
    st.builds(ProvenanceRecord, subject=refs, attr=edge_attrs,
              value=refs))

streams = st.lists(records, max_size=60)


def fingerprint(graph: OEMGraph) -> dict:
    """The shared fingerprint plus the name index the evaluator's
    selection pushdown reads."""
    out = graph_fingerprint(graph)
    out["by_name"] = {name: sorted(n.ref for n in graph.named(name))
                      for name in ("/pass/a", "/pass/b", "sh")}
    return out


@given(streams)
@settings(max_examples=200)
def test_apply_equals_build(stream):
    batch = OEMGraph.build(stream)
    live = OEMGraph()
    for record in stream:
        live.apply(record)
    assert fingerprint(live) == fingerprint(batch)


@given(streams, st.integers(0, 60))
@settings(max_examples=200)
def test_build_prefix_then_apply_suffix_equals_build(stream, cut):
    """The real lifecycle: batch-build over history, then go live."""
    cut = min(cut, len(stream))
    hybrid = OEMGraph.build(stream[:cut])
    for record in stream[cut:]:
        hybrid.apply(record)
    assert fingerprint(hybrid) == fingerprint(OEMGraph.build(stream))


@given(streams)
@settings(max_examples=50)
def test_query_results_match(stream):
    """Same rows out of both graphs, not just same structure."""
    batch = QueryEngine(OEMGraph.build(stream), check=False)
    live_graph = OEMGraph()
    live_graph.apply_batch(stream)
    live = QueryEngine(live_graph, check=False)
    for query in (
        "select N from Provenance.node as N",
        'select F from Provenance.file as F where F.name = "/pass/a"',
        "select D from Provenance.node as N N.^input* as D",
        "select count(N) from Provenance.node as N",
    ):
        assert sorted(map(repr, live.execute_refs(query))) == \
            sorted(map(repr, batch.execute_refs(query)))


@given(streams)
@settings(max_examples=100)
def test_vocab_epoch_monotonic_and_label_complete(stream):
    """Epoch only moves forward, and label accessors cover every label
    actually present on nodes (the Vocabulary fast path relies on it)."""
    graph = OEMGraph()
    last = graph.vocab_epoch
    for record in stream:
        graph.apply(record)
        assert graph.vocab_epoch >= last
        last = graph.vocab_epoch
    seen_atoms, seen_edges = set(), set()
    for node in graph.nodes():
        seen_atoms.update(l for l, v in node.atoms.items() if v)
        seen_edges.update(l for l, t in node.edges.items() if t)
    assert seen_atoms <= graph.atom_labels()
    assert seen_edges <= graph.edge_labels()
