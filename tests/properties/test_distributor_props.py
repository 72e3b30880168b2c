"""Run-wise ``Distributor.flush_batch`` routes exactly as per-record
``dispatch``.

``flush_batch`` decides once per run of records about one subject and
moves a run without cross-references as one slice.  For any script of
batches, ``pass_sync`` calls, discards and volume hints, over
persistent, transient and already assigned subjects whose
cross-references build cached ancestor chains, two distributors -- one
fed whole batches, one fed the same records one ``dispatch`` at a time
-- must send every volume the same records in the same order and end
with the same cache, assignments and counters.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.distributor import Distributor
from repro.core.pnode import ObjectRef, make_pnode
from repro.core.records import Attr, ProvenanceRecord, RecordBatch

VOLUMES = {1: "pass", 2: "pass2"}

transient = st.builds(make_pnode, st.just(0), st.integers(1, 6))
persistent = st.builds(make_pnode, st.sampled_from(sorted(VOLUMES)),
                       st.integers(1, 3))
pnodes = st.one_of(transient, transient, persistent)
refs = st.builds(ObjectRef, pnodes, st.integers(0, 2))
values = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.booleans(),
                   st.binary(max_size=3), refs, refs)
attrs = st.sampled_from([Attr.NAME, Attr.INPUT, Attr.ANNOTATION, Attr.PID])

#: One run: a subject, its (attr, value) pairs, and whether the records
#: share one subject instance (the analyzer's shape) or each carry an
#: equal copy.
runs = st.tuples(refs, st.lists(st.tuples(attrs, values), min_size=1,
                                max_size=5), st.booleans())

steps = st.lists(st.one_of(
    st.tuples(st.just("batch"), st.lists(runs, min_size=1, max_size=6)),
    st.tuples(st.just("sync"), pnodes),
    st.tuples(st.just("discard"), transient),
    st.tuples(st.just("hint"), transient, st.sampled_from(["pass", "pass2"])),
), max_size=12)


def _distributor():
    sunk: dict = {name: [] for name in VOLUMES.values()}

    def sink(volume, carrier):
        sunk[volume] += [(r.subject, r.attr, r.value) for r in carrier]

    return Distributor(sink, VOLUMES.__getitem__, default_volume="pass"), sunk


def _records(batch_runs) -> list:
    records = []
    for subject, pairs, shared in batch_runs:
        for attr, value in pairs:
            ref = subject if shared else ObjectRef(*subject)
            records.append(ProvenanceRecord(ref, attr, value))
    return records


def _state(distributor) -> tuple:
    return (distributor._cache, distributor._assigned,
            distributor.records_flushed, distributor.records_cached,
            distributor.records_discarded, distributor.flush_calls)


@given(steps)
@settings(max_examples=300, deadline=None)
def test_flush_batch_routes_as_dispatch(script):
    batched, batched_sunk = _distributor()
    single, single_sunk = _distributor()
    for step in script:
        kind = step[0]
        if kind == "batch":
            records = _records(step[1])
            batched.flush_batch(RecordBatch(records))
            for record in records:
                single.dispatch(record)
        elif kind == "sync":
            pnode = step[1]
            known = pnode in single._cache or pnode in single._assigned
            if known:
                assert batched.sync(pnode) == single.sync(pnode)
        elif kind == "discard":
            assert batched.discard(step[1]) == single.discard(step[1])
        else:
            batched.set_hint(step[1], step[2])
            single.set_hint(step[1], step[2])
        assert batched_sunk == single_sunk
        assert _state(batched) == _state(single)
