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
from repro.core.records import Attr, ProvenanceRecord, RecordBatch
from repro.pql.engine import QueryEngine
from repro.pql.indexes import IndexCatalog
from repro.pql.oem import OEMGraph
from repro.storage.database import ProvenanceDatabase
from tests.conftest import graph_fingerprint

refs = st.builds(ObjectRef,
                 pnode=st.integers(1, 6),
                 version=st.integers(0, 3))

#: Identity, plain, framing, and edge attributes all mixed together.
attrs = st.sampled_from([Attr.NAME, Attr.TYPE, Attr.ARGV, Attr.PID,
                         Attr.MD5, Attr.TIME, Attr.ANNOTATION,
                         Attr.BEGINTXN, Attr.ENDTXN])
EDGE_ATTRS = (Attr.INPUT, Attr.PREV_VERSION, Attr.FORKPARENT, Attr.EXEC)
edge_attrs = st.sampled_from(EDGE_ATTRS)

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


@st.composite
def run_rows(draw):
    """Flat rows in runs, the way ``all_rows()`` delivers them: each run
    repeats one subject ref *instance* and one attribute string
    instance, but a slot may instead carry an equal ref or string that
    is another instance, and framing rows land in the middle of runs.
    Build's run memo keys on instances; this is what it must survive."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        ref = draw(refs)
        attr = draw(st.one_of(attrs, edge_attrs))
        for _ in range(draw(st.integers(1, 5))):
            subject = (ref if draw(st.booleans())
                       else ObjectRef(ref.pnode, ref.version))
            if draw(st.integers(0, 4)) == 0:
                rows += (subject, draw(st.sampled_from(
                    [Attr.BEGINTXN, Attr.ENDTXN])), draw(st.integers(0, 9)))
            name = attr if draw(st.booleans()) else attr.encode().decode()
            value = draw(refs if attr in EDGE_ATTRS else plain_values)
            rows += (subject, name, value)
    return rows


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


@given(run_rows())
@settings(max_examples=200)
def test_run_memo_build_equals_apply(rows):
    """Rows in shared-instance runs: the one-pass build and the apply
    path give the same graph, straight or regrouped by a database and
    streamed from its ``all_rows()`` into a live engine."""
    applied = OEMGraph()
    applied.apply_batch(RecordBatch.of_rows(rows))
    assert fingerprint(OEMGraph.build(RecordBatch.of_rows(rows))) == \
        fingerprint(applied)
    database = ProvenanceDatabase()
    database.insert_many(RecordBatch.of_rows(rows))
    regrouped = OEMGraph()
    regrouped.apply_batch(database.all_records())
    live = QueryEngine.live([database], check=False)
    assert fingerprint(live.graph) == fingerprint(regrouped)


@given(run_rows(), st.integers(0, 40))
@settings(max_examples=200)
def test_load_rows_into_a_grown_graph_equals_apply(rows, cut):
    """The one pass spliced into a graph that already holds nodes --
    new versions of old objects, identity atoms both old and new --
    gives the graph the apply path gives, with or without an index
    catalog attached."""
    cut = 3 * min(cut, len(rows) // 3)
    applied = OEMGraph()
    applied.apply_batch(RecordBatch.of_rows(rows))
    for attach in (False, True):
        graph = OEMGraph.build(RecordBatch.of_rows(rows[:cut]))
        if attach:
            IndexCatalog.attach(graph)
        count = sum(attr not in (Attr.BEGINTXN, Attr.ENDTXN)
                    for attr in rows[cut + 1::3])
        assert graph.load_rows(iter(rows[cut:])) == count
        assert fingerprint(graph) == fingerprint(applied)
        assert graph.records_applied == applied.records_applied
