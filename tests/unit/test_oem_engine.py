"""Unit tests for the OEM graph and query-engine plumbing."""

import gc

import pytest

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.oem import OEMGraph


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


class TestGraphConstruction:
    def test_one_node_per_version(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(1, 1, Attr.PREV_VERSION, ObjectRef(1, 0)),
        ])
        assert len(graph) == 2
        assert [n.ref.version for n in graph.versions_of(1)] == [0, 1]

    def test_plain_values_become_atoms(self):
        graph = OEMGraph.build([R(1, 0, Attr.PID, 42)])
        node = graph.node(ObjectRef(1, 0))
        assert node.atom("pid") == [42]

    def test_xrefs_become_edges_both_directions(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.INPUT, ObjectRef(2, 0)),
        ])
        child = graph.node(ObjectRef(1, 0))
        parent = graph.node(ObjectRef(2, 0))
        assert child.out("input") == [parent]
        assert parent.rin("input") == [child]

    def test_framing_records_excluded(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.BEGINTXN, 7),
            R(1, 0, Attr.ENDTXN, 7),
            R(1, 0, Attr.NAME, "real"),
        ])
        node = graph.node(ObjectRef(1, 0))
        assert "begintxn" not in node.atoms
        assert node.name == "real"

    def test_identity_atoms_shared_across_versions(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.NAME, "/f"),
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(1, 2, Attr.ANNOTATION, "only-v2"),
        ])
        v2 = graph.node(ObjectRef(1, 2))
        assert v2.name == "/f"
        assert v2.type == ObjType.FILE
        # Non-identity atoms stay per-version.
        v0 = graph.node(ObjectRef(1, 0))
        assert v0.atom("annotation") == []

    def test_multiple_names_all_kept(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.NAME, "/old"),
            R(1, 0, Attr.NAME, "/new"),
        ])
        assert graph.node(ObjectRef(1, 0)).atom("name") == ["/old", "/new"]

    def test_members_classified_by_type(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.TYPE, ObjType.FILE),
            R(2, 0, Attr.TYPE, ObjType.PROCESS),
            R(3, 0, Attr.PID, 9),          # untyped
        ])
        assert len(graph.members("file")) == 1
        assert len(graph.members("process")) == 1
        assert len(graph.members("node")) == 3
        assert "file" in graph.member_names()

    def test_stub_nodes_for_referenced_only_objects(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.INPUT, ObjectRef(99, 3)),
        ])
        stub = graph.node(ObjectRef(99, 3))
        assert stub is not None
        assert stub.atoms == {}

    def test_build_pauses_collector_and_restores_it(self):
        """The bulk pass runs with the cyclic collector off and leaves
        it as it found it -- on, off, or on after a failing stream."""
        seen = []

        def stream(fail=False):
            seen.append(gc.isenabled())
            yield R(1, 0, Attr.NAME, "/f")
            if fail:
                raise RuntimeError("source went away")

        assert gc.isenabled()
        OEMGraph.build(stream())
        assert seen == [False] and gc.isenabled()
        with pytest.raises(RuntimeError):
            OEMGraph.build(stream(fail=True))
        assert gc.isenabled()
        gc.disable()
        try:
            OEMGraph.build(stream())
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestIncrementalApply:
    def test_apply_grows_nodes_and_edges(self):
        graph = OEMGraph()
        graph.apply(R(1, 0, Attr.INPUT, ObjectRef(2, 0)))
        child = graph.node(ObjectRef(1, 0))
        parent = graph.node(ObjectRef(2, 0))
        assert child.out("input") == [parent]
        assert parent.rin("input") == [child]
        assert len(graph.members("node")) == 2

    def test_apply_skips_framing(self):
        graph = OEMGraph()
        graph.apply(R(1, 0, Attr.BEGINTXN, 7))
        graph.apply(R(1, 0, Attr.ENDTXN, 7))
        assert len(graph) == 0

    def test_identity_flows_to_later_versions(self):
        graph = OEMGraph()
        graph.apply(R(1, 0, Attr.NAME, "/f"))
        graph.apply(R(1, 2, Attr.ANNOTATION, "v2"))
        assert graph.node(ObjectRef(1, 2)).name == "/f"
        assert graph.named("/f") and len(graph.named("/f")) == 2

    def test_identity_flows_to_earlier_versions(self):
        graph = OEMGraph()
        graph.apply(R(1, 2, Attr.ANNOTATION, "v2"))
        graph.apply(R(1, 0, Attr.NAME, "/f"))
        assert graph.node(ObjectRef(1, 2)).name == "/f"

    def test_type_classifies_member_eagerly(self):
        graph = OEMGraph()
        graph.apply(R(1, 0, Attr.TYPE, ObjType.FILE))
        assert len(graph.members("file")) == 1
        graph.apply(R(1, 3, Attr.PID, 9))
        assert len(graph.members("file")) == 2

    def test_vocab_epoch_bumps_on_new_labels_only(self):
        graph = OEMGraph()
        graph.apply(R(1, 0, Attr.MD5, "aa"))
        epoch = graph.vocab_epoch
        graph.apply(R(2, 0, Attr.MD5, "bb"))     # label already known
        assert graph.vocab_epoch == epoch
        graph.apply(R(2, 0, Attr.INPUT, ObjectRef(1, 0)))
        assert graph.vocab_epoch > epoch

    def test_apply_many_counts(self):
        graph = OEMGraph()
        applied = graph.apply_many([
            R(1, 0, Attr.NAME, "/a"),
            R(2, 0, Attr.NAME, "/b"),
        ])
        assert applied == 2
        assert len(graph) == 2


class TestLiveEngine:
    def test_live_engine_sees_later_inserts(self):
        from repro.storage.database import ProvenanceDatabase
        db = ProvenanceDatabase("a")
        db.insert(R(1, 0, Attr.TYPE, ObjType.FILE))
        engine = QueryEngine.live([db])
        count = "select count(F) from Provenance.file as F"
        assert engine.execute(count) == [1]
        db.insert(R(2, 0, Attr.TYPE, ObjType.FILE))
        assert engine.execute(count) == [2]

    def test_from_databases_is_live(self):
        from repro.storage.database import ProvenanceDatabase
        db = ProvenanceDatabase("a")
        engine = QueryEngine.from_databases([db])
        db.insert(R(1, 0, Attr.NAME, "/x"))
        assert engine.graph.named("/x")

    def test_from_records_is_a_static_snapshot(self):
        engine = QueryEngine.from_records([R(1, 0, Attr.NAME, "/x")])
        assert engine.graph.named("/x")

    def test_waldo_returns_the_same_live_engine(self):
        from repro.kernel.clock import SimClock
        from repro.kernel.params import LogParams
        from repro.storage.log import ProvenanceLog
        from repro.storage.waldo import Waldo
        log = ProvenanceLog(SimClock(), LogParams(max_size=1 << 30))
        waldo = Waldo(log)
        engine = waldo.query_engine()
        assert waldo.query_engine() is engine
        log.append(R(1, 0, Attr.NAME, "/via-drain"))
        log.flush()
        log.rotate()
        waldo.drain()
        assert engine.graph.named("/via-drain")

    def test_vocabulary_refreshes_when_graph_grows(self):
        from repro.storage.database import ProvenanceDatabase
        db = ProvenanceDatabase("a")
        engine = QueryEngine.live([db])
        assert not engine.vocabulary().knows("custom_attr")
        db.insert(R(1, 0, "CUSTOM_ATTR", "payload"))
        assert engine.vocabulary().knows("custom_attr")

    def test_check_passes_after_vocabulary_growth(self):
        from repro.core.errors import PQLError
        from repro.storage.database import ProvenanceDatabase
        db = ProvenanceDatabase("a")
        db.insert(R(1, 0, Attr.TYPE, ObjType.FILE))
        engine = QueryEngine.live([db])
        query = ("select F from Provenance.file as F "
                 "where F.custom_attr = 1")
        with pytest.raises(PQLError):
            engine.execute(query)
        db.insert(R(1, 0, "CUSTOM_ATTR", 1))
        assert engine.execute(query)


class TestPlanCache:
    def test_plan_cache_normalizes_whitespace(self):
        engine = QueryEngine.from_records([])
        a = engine.plan("select F from Provenance.file as F")
        b = engine.plan("select  F\n from   Provenance.file as F")
        assert a is b

    def test_check_runs_once_per_epoch(self):
        from repro.obs import Observability
        obs = Observability(metrics_enabled=True)
        engine = QueryEngine(OEMGraph.build([
            R(1, 0, Attr.TYPE, ObjType.FILE)]), obs=obs)
        text = "select F from Provenance.file as F"
        engine.execute(text)
        engine.execute(text)
        counters = obs.stats()["pql"]["counters"]
        assert counters["parses"] == 1
        assert counters["parse_cache_hits"] == 1
        assert counters["check_cache_hits"] == 1


class TestEngine:
    def test_from_databases_merges(self):
        from repro.storage.database import ProvenanceDatabase
        db1 = ProvenanceDatabase("a")
        db2 = ProvenanceDatabase("b")
        db1.insert(R(1, 0, Attr.TYPE, ObjType.FILE))
        db2.insert(R(2, 0, Attr.TYPE, ObjType.FILE))
        engine = QueryEngine.from_databases([db1, db2])
        assert engine.execute("select count(F) from Provenance.file as F") \
            == [2]

    def test_parse_cache(self):
        engine = QueryEngine.from_records([])
        text = "select F from Provenance.file as F"
        assert engine.parse(text) is engine.parse(text)

    def test_execute_refs_conversion(self):
        engine = QueryEngine.from_records([
            R(5, 1, Attr.TYPE, ObjType.FILE),
            R(5, 1, Attr.NAME, "/x"),
        ])
        refs = engine.execute_refs("select F from Provenance.file as F")
        assert refs == [ObjectRef(5, 1)]
        rows = engine.execute_refs(
            "select F, F.name from Provenance.file as F")
        assert rows == [(ObjectRef(5, 1), "/x")]
