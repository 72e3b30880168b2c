"""Planner soundness properties: planned == naive, maintained == rebuilt.

The optimizer is only allowed to change *where candidate rows come
from*, never which rows come back.  These properties drive random
record streams and generated queries through an engine (and a
federated one) and through the catalog-less reference evaluator over
the same graph (``tests.conftest.reference_rows``) and require
identical answers; separately, indexes maintained incrementally through
``apply``/``apply_batch`` must match structures rebuilt from scratch
over the final graph, and the ancestry memo read after splices must
match closures walked fresh -- including after a crash/recover replay
through the storage tier.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.errors import ReproError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.indexes import EqualityIndex, IndexCatalog, RangeIndex
from repro.pql.lexer import KEYWORDS
from repro.pql.oem import OEMGraph
from repro.storage.database import ProvenanceDatabase
from tests.conftest import graph_fingerprint, planned_refs, reference_refs

# -- generators (mirroring test_oem_incremental_props / test_pql_props) -------

refs = st.builds(ObjectRef,
                 pnode=st.integers(1, 6),
                 version=st.integers(0, 3))

attrs = st.sampled_from([Attr.NAME, Attr.TYPE, Attr.ARGV, Attr.PID,
                         Attr.MD5, Attr.TIME, Attr.ANNOTATION])
edge_attrs = st.sampled_from([Attr.INPUT, Attr.PREV_VERSION,
                              Attr.FORKPARENT, Attr.EXEC])

plain_values = st.one_of(
    st.sampled_from(["/pass/a", "/pass/b", "file", "process", "sh"]),
    st.integers(0, 99))

records = st.one_of(
    st.builds(ProvenanceRecord, subject=refs, attr=attrs,
              value=plain_values),
    st.builds(ProvenanceRecord, subject=refs, attr=edge_attrs,
              value=refs))

streams = st.lists(records, max_size=60)

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
member_names = st.sampled_from(["file", "process", "pipe", "node"])
edge_names = st.sampled_from(["input", "forkparent", "exec",
                              "prev_version"])
quantifiers = st.sampled_from(["", "*", "+", "?", "{2}", "{1,3}", "{2,}"])

#: WHERE tails that exercise every planner access path: equality on an
#: indexed atom, numeric ranges (both operand orders, two-sided), name
#: equality, multi-conjunct, and un-plannable shapes (OR, inequality).
where_tails = st.sampled_from([
    "",
    ' where {v}.md5 = "/pass/a"',
    ' where {v}.time < 50',
    ' where 50 >= {v}.time',
    ' where {v}.name = "/pass/b"',
    ' where {v}.time > 10 and {v}.name = "/pass/a"',
    ' where {v}.time >= 20 and {v}.time < 60',
    ' where {v}.name = "/pass/a" or {v}.time = 3',
    ' where {v}.pid != 7',
    ' where {v2}.md5 = "/pass/b"',
])


@st.composite
def queries(draw):
    """Structurally valid two-binding queries with planner-relevant
    WHERE clauses."""
    var = draw(identifiers.filter(
        lambda name: name.lower() not in KEYWORDS))
    member = draw(member_names)
    edge = draw(edge_names)
    quant = draw(quantifiers)
    reverse = "^" if draw(st.booleans()) else ""
    second = f"{var}2"
    text = (f"select {second} from Provenance.{member} as {var} "
            f"{var}.{reverse}{edge}{quant} as {second}")
    text += draw(where_tails).format(v=var, v2=second)
    return text


#: Small, dense graphs (few nodes, TIME values around the bounds the
#: atoms below use, often several per node) so generated joins and
#: filters have rows to keep and rows to drop.
few_refs = st.builds(ObjectRef, pnode=st.integers(1, 3),
                     version=st.integers(0, 1))
dense_streams = st.lists(st.one_of(
    st.builds(ProvenanceRecord, subject=few_refs, attr=st.just(Attr.TIME),
              value=st.sampled_from([5, 10, 20, 30, 31, 59, 60, 70, 90])),
    st.builds(ProvenanceRecord, subject=few_refs,
              attr=st.sampled_from([Attr.NAME, Attr.MD5]),
              value=st.sampled_from(["/pass/a", "/pass/b"])),
    st.builds(ProvenanceRecord, subject=few_refs, attr=st.just(Attr.TYPE),
              value=st.just("file")),
    st.builds(ProvenanceRecord, subject=few_refs,
              attr=st.sampled_from([Attr.INPUT, Attr.PREV_VERSION]),
              value=few_refs)), min_size=10, max_size=50)

#: WHERE atoms for the conjunct-placement properties: predicates over
#: the first variable, the last, and both; two-sided ranges on one
#: label; an existence test; and a correlated subquery ({v3} is fresh).
where_atoms = st.sampled_from([
    "{v}.time >= 20", "{v}.time < 70", "30 < {v}.time", "{v}.time <= 30",
    "{v2}.time > 10", "{v2}.time < 60", "{v2}.time >= 60",
    '{v}.name = "/pass/a"', '{v2}.md5 = "/pass/b"', "{v}.pid != 7",
    "{v}.time < {v2}.time", '{v}.name = {v2}.name', "{v2}.input",
    "exists (select {v3} from {v2}.input as {v3} "
    "where {v3}.time >= {v}.time)",
])

where_exprs = st.recursive(
    where_atoms,
    lambda inner: st.one_of(
        st.builds("not ({})".format, inner),
        st.builds("({} or {})".format, inner, inner),
        st.builds("({} and {})".format, inner, inner)),
    max_leaves=4)


@st.composite
def conjunct_queries(draw):
    """Two-binding queries whose WHERE is an AND of generated
    expressions; ``shadow`` binds one variable twice."""
    var = draw(identifiers.filter(
        lambda name: name.lower() not in KEYWORDS))
    shadow = draw(st.booleans())
    second = var if shadow else f"{var}2"
    reverse = "^" if draw(st.booleans()) else ""
    member = draw(st.sampled_from(["node", "file"]))
    edge = draw(st.sampled_from(["input", "prev_version"]))
    text = (f"select {second} from Provenance.{member} as {var} "
            f"{var}.{reverse}{edge}{draw(quantifiers)} as {second} where ")
    where = " and ".join(draw(st.lists(where_exprs, min_size=1, max_size=4)))
    return text + where.format(v=var, v2=second, v3=f"{var}3")


def canonical(rows) -> list[str]:
    return sorted(map(repr, rows))


def assert_arms_agree(engine: QueryEngine, query: str) -> None:
    try:
        planned = planned_refs(engine, query)
    except ReproError:
        return
    naive = reference_refs(engine, query)
    assert canonical(planned) == canonical(naive), query


# -- planned == naive ---------------------------------------------------------

@given(streams, queries())
@settings(max_examples=200, deadline=None)
def test_planned_equals_naive(stream, query):
    engine = QueryEngine(OEMGraph.build(stream), check=False)
    assert_arms_agree(engine, query)


@given(streams, queries())
@settings(max_examples=100, deadline=None)
def test_planned_equals_naive_federated(stream, query):
    """The PR 9 shape: records sharded across databases, one live
    engine over the union."""
    shards = [ProvenanceDatabase(f"s{index}") for index in range(3)]
    for record in stream:
        shards[record.subject.pnode % 3].insert(record)
    engine = QueryEngine.live(shards, check=False)
    assert_arms_agree(engine, query)


@given(streams, st.integers(0, 60), queries())
@settings(max_examples=100, deadline=None)
def test_planned_equals_naive_while_growing(stream, cut, query):
    """Queries interleaved with ingest: answer, grow, answer again --
    index maintenance and the memo's emptying must stay sound mid-stream."""
    cut = min(cut, len(stream))
    engine = QueryEngine(OEMGraph.build(stream[:cut]), check=False)
    assert_arms_agree(engine, query)
    engine.graph.apply_batch(stream[cut:])
    assert_arms_agree(engine, query)


@given(dense_streams, st.integers(0, 50), conjunct_queries())
@settings(max_examples=300, deadline=None)
def test_pushed_conjuncts_equal_naive(stream, cut, query):
    """Conjuncts evaluated at the binding that completes them, and
    ranges merged into one interval, keep exactly the naive rows --
    before and after the graph (and the range index) grows."""
    cut = min(cut, len(stream))
    engine = QueryEngine(OEMGraph.build(stream[:cut]), check=False)
    assert_arms_agree(engine, query)
    engine.graph.apply_batch(stream[cut:])
    assert_arms_agree(engine, query)


@given(streams, refs, st.integers(2, 97), st.integers(0, 40),
       st.integers(1, 3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_straddling_values_survive_merged_interval(stream, ref, low, width,
                                                    gap, late):
    """One node holds a TIME below the window and another above it:
    ``time >= low and time < high`` holds existentially though no value
    lies inside -- the case a bare merged interval would lose.  The
    second value arrives before or after the index is built."""
    high = low + width
    straddle = [ProvenanceRecord(ref, Attr.TIME, low - gap),
                ProvenanceRecord(ref, Attr.TIME, high + gap)]
    engine = QueryEngine(OEMGraph.build(stream + straddle[:1]), check=False)
    query = (f"select N from Provenance.node as N "
             f"where N.time >= {low} and {high} > N.time")
    if late:
        engine.execute(query)               # build the index first
    engine.graph.apply(straddle[1])
    assert_arms_agree(engine, query)
    assert ref in planned_refs(engine, query)
    plan, = engine.plan(query).binding_plans
    if plan.access == "range_index":
        assert (plan.detail["low"], plan.detail["high"]) == (low, high)


# -- maintained == rebuilt ----------------------------------------------------

def eq_fingerprint(index: EqualityIndex, graph: OEMGraph) -> dict:
    probes = ["/pass/a", "/pass/b", "file", "process", "sh"] + \
        list(range(0, 100, 7))
    lookups = {value: canonical(n.ref for n in index.lookup(value))
               for value in probes}
    # The raw buckets too: a maintained index must hold the same shape
    # (the node itself for one entry, a list from the second on).  List
    # order is not part of it: maintained fills in atom-arrival order,
    # rebuilt in node-creation order, and answers compare as multisets.
    shape = {value: sorted(n.ref for n in bucket)
             if isinstance(bucket, list) else bucket.ref
             for value, bucket in index._buckets.items()}
    assert all(not isinstance(bucket, list) or len(bucket) > 1
               for bucket in index._buckets.values())
    assert len(index) == sum(len(index.lookup(value))
                             for value in index._buckets)
    return {"lookups": lookups, "buckets": shape}


def rng_fingerprint(index: RangeIndex) -> tuple:
    return (canonical((value, node.ref) for value, _, node in index._pairs),
            canonical(node.ref for node in index._multi))


@given(streams, st.integers(0, 60))
@example(  # node 2 is created first, node 1 gets its md5 first
    [ProvenanceRecord(ObjectRef(2, 0), Attr.NAME, "/pass/a"),
     ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "/pass/a"),
     ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "/pass/a"),
     ProvenanceRecord(ObjectRef(1, 0), Attr.MD5, "/pass/a"),
     ProvenanceRecord(ObjectRef(2, 0), Attr.MD5, "/pass/a")], 0)
@settings(max_examples=150, deadline=None)
def test_maintained_indexes_equal_rebuilt(stream, cut):
    """Indexes built mid-stream and maintained through apply/apply_batch
    match indexes rebuilt from scratch over the final graph."""
    cut = min(cut, len(stream))
    graph = OEMGraph.build(stream[:cut])
    catalog = IndexCatalog.attach(graph)
    maintained_eq = catalog.equality("md5")
    maintained_rng = catalog.range("time")
    half = cut + (len(stream) - cut) // 2
    for record in stream[cut:half]:
        graph.apply(record)
    graph.apply_batch(stream[half:])
    assert eq_fingerprint(maintained_eq, graph) == \
        eq_fingerprint(EqualityIndex("md5", graph.nodes()), graph)
    assert rng_fingerprint(maintained_rng) == \
        rng_fingerprint(RangeIndex("time", graph.nodes()))
    # The atoms the indexes read and the graph's name and version
    # indexes, raw: the same values in the same representation as a
    # graph built in one pass.
    assert graph_fingerprint(graph) == \
        graph_fingerprint(OEMGraph.build(stream))


def assert_closures_well_formed(view) -> None:
    """Every memoised closure lists each node exactly once."""
    for entry in view._entries.values():
        assert len(entry) == len({id(node) for node in entry})


@given(streams, st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_patched_view_equals_recomputed(stream, cut):
    """Closures read through the memo of an attached catalog, before
    and after each later splice, equal closures a fresh unattached
    catalog walks on the graph as it is -- node for node, in order."""
    cut = min(cut, len(stream))
    graph = OEMGraph.build(stream[:cut])
    catalog = IndexCatalog.attach(graph)
    labels = ("input", "prev_version")
    roots = graph.nodes()[:6]
    for root in roots:
        catalog.view.closure(root, labels, False)
        catalog.view.closure(root, labels, True)
    half = cut + (len(stream) - cut) // 2
    for burst in (stream[cut:half], stream[half:]):
        graph.apply_batch(burst)
        fresh = IndexCatalog(graph)         # unattached: no deltas seen
        for root in roots:
            for reverse in (False, True):
                memo = catalog.view.closure(root, labels, reverse)
                computed = fresh.view.closure(root, labels, reverse)
                assert [n.ref for n in memo] == \
                    [n.ref for n in computed], (root.ref, reverse)
        assert_closures_well_formed(catalog.view)


# -- crash -> recover replay --------------------------------------------------

def test_crash_recover_replay_keeps_planner_sound():
    """Two PASS volumes under one live engine, queries warm the indexes,
    the machine dies with both logs undrained, recovery replays through
    the databases' push feeds: the maintained indexes must absorb the
    replayed records and keep planned == naive."""
    from repro.system import System
    from tests.conftest import write_file

    system = System.boot(pass_volumes=("pass", "pass2"))
    write_file(system, "/pass/before", b"old")
    write_file(system, "/pass2/before", b"old")
    system.sync()
    engine = system.query_engine()
    q_name = ('select F from Provenance.file as F '
              'where F.name = "/pass/after"')
    q_closure = ('select A from Provenance.file as F, F.input* as A '
                 'where F.name = "/pass/out"')
    q_across = ('select A from Provenance.file as F, F.input* as A '
                'where F.name = "/pass2/copy"')
    queries = (q_name, q_closure, q_across)
    for query in queries:
        engine.execute(query)               # build indexes pre-crash
    assert engine.catalog is not None

    with system.process(argv=["maker"]) as proc:
        fd = proc.open("/pass/after", "w")
        proc.write(fd, b"new")
        proc.close(fd)
        src = proc.open("/pass/after", "r")
        proc.read(src)
        proc.close(src)
        out = proc.open("/pass/out", "w")
        proc.write(out, b"derived")
        proc.close(out)
        copy = proc.open("/pass2/copy", "w")
        proc.write(copy, b"derived")
        proc.close(copy)
    # No sync: the records sit in both volumes' logs.  Die and recover.
    assert all(system.tier.lasagna(name).log.current.nbytes
               for name in ("pass", "pass2"))
    system.tier.crash()
    report = system.tier.recover(consume=True)
    assert report.committed_records

    for query in queries:
        assert_arms_agree(engine, query)
    assert planned_refs(engine, q_name)      # the replay really arrived
    for query in (q_closure, q_across):
        names = {getattr(row, "name", None)
                 for row in engine.execute(query)}
        assert "/pass/after" in names, query
