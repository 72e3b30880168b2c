"""One splice loop: any split of a row stream into batches == one build.

The live query path only works if a graph grown one drained group at a
time is indistinguishable from one built over the same stream.  These
properties drive randomly generated row streams (framing, identity
atoms, cross-references, version churn, arbitrary arrival order, runs
of shared ref and attribute instances) through consecutive splices and
compare the full observable surface: nodes, atoms, edges in both
directions, Provenance members, the name index, an attached index
catalog's indexes, and actual query results.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pnode import ObjectRef
from repro.core.records import (Attr, ProvenanceRecord, RecordBatch,
                                rows_of)
from repro.pql.engine import QueryEngine
from repro.pql.indexes import EqualityIndex, IndexCatalog, RangeIndex
from repro.pql.oem import OEMGraph
from repro.storage.database import ProvenanceDatabase
from tests.conftest import graph_fingerprint, planned_refs
from tests.properties.test_planner_props import eq_fingerprint, rng_fingerprint

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
        assert sorted(map(repr, planned_refs(live, query))) == \
            sorted(map(repr, planned_refs(batch, query)))


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


@st.composite
def row_streams(draw):
    """Flat rows: a record stream flattened, rows in shared-instance
    runs, or those runs regrouped by a database and read back from its
    ``all_rows()`` (the stream a live engine builds from)."""
    kind = draw(st.sampled_from(("records", "runs", "database")))
    if kind == "records":
        return rows_of(draw(streams))
    rows = draw(run_rows())
    if kind == "database":
        database = ProvenanceDatabase()
        database.insert_many(RecordBatch.of_rows(rows))
        rows = list(database.all_rows())
    return rows


@given(row_streams(), st.lists(st.integers(0, 60), max_size=8),
       st.integers(-1, 8))
@settings(max_examples=300, deadline=None)
def test_any_split_into_batches_equals_one_build(rows, cuts, attach_at):
    """Splice consecutive batches of a row stream -- the first through
    ``build`` unless the catalog is attached to the empty graph, the rest
    through ``apply_batch`` -- attaching an index catalog before batch
    ``attach_at`` (never when out of range).  The graph, its record count
    and its name index equal one build over the whole stream, and the
    indexes requested right after attaching equal indexes rebuilt over
    the final graph."""
    records = len(rows) // 3
    bounds = sorted({0, records, *(min(cut, records) for cut in cuts)})
    batches = [RecordBatch.of_rows(rows[3 * start:3 * end])
               for start, end in zip(bounds, bounds[1:])]
    graph, maintained = OEMGraph(), None
    for position, batch in enumerate(batches):
        if position == attach_at:
            catalog = IndexCatalog.attach(graph)
            maintained = (
                [catalog.equality(label) for label in ("md5", "name")],
                [catalog.range(label) for label in ("time", "pid")])
        if position == 0 and attach_at != 0:
            graph = OEMGraph.build(batch)
        else:
            graph.apply_batch(batch)
    built = OEMGraph.build(RecordBatch.of_rows(rows))
    assert fingerprint(graph) == fingerprint(built)
    assert graph.records_applied == built.records_applied == sum(
        attr not in (Attr.BEGINTXN, Attr.ENDTXN) for attr in rows[1::3])
    if maintained is not None:
        equality, ranges = maintained
        for index in equality:
            assert eq_fingerprint(index, graph) == eq_fingerprint(
                EqualityIndex(index.label, graph.nodes()), graph)
        for index in ranges:
            assert rng_fingerprint(index) == rng_fingerprint(
                RangeIndex(index.label, graph.nodes()))
