"""Unit tests for the OEM graph and query-engine plumbing."""

import gc

import pytest

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.oem import OEMGraph
from repro.pql.parser import parse
from tests.conftest import planned_refs


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
        assert node.atoms["pid"] == (42,)

    def test_xrefs_become_edges_both_directions(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.INPUT, ObjectRef(2, 0)),
        ])
        child = graph.node(ObjectRef(1, 0))
        parent = graph.node(ObjectRef(2, 0))
        assert child.edges["input"] == [parent]
        assert parent.redges["input"] == [child]

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
        assert "annotation" not in v0.atoms

    def test_multiple_names_all_kept(self):
        graph = OEMGraph.build([
            R(1, 0, Attr.NAME, "/old"),
            R(1, 0, Attr.NAME, "/new"),
            R(1, 1, Attr.NAME, "/old"),     # a repeat is held once
        ])
        for version in (0, 1):
            assert graph.node(ObjectRef(1, version)).atoms["name"] == \
                ["/old", "/new"]
        assert len(graph.named("/old")) == 2

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
        assert child.edges["input"] == [parent]
        assert parent.redges["input"] == [child]
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

    def test_late_identity_reaches_every_version_in_arrival_order(self):
        """A second NAME after two versions exist, then a third version:
        all three hold both names, in arrival order, whether the stream
        is applied (a new version copies a sibling's identity atoms) or
        built in one pass; the name and version indexes agree."""
        from tests.conftest import graph_fingerprint

        stream = [R(1, 0, Attr.NAME, "/a"),
                  R(1, 1, Attr.PREV_VERSION, ObjectRef(1, 0)),
                  R(1, 0, Attr.NAME, "/b"),
                  R(1, 2, Attr.PREV_VERSION, ObjectRef(1, 1))]
        applied = OEMGraph()
        for record in stream:
            applied.apply(record)
        built = OEMGraph.build(stream)
        for graph in (applied, built):
            assert [node.atoms["name"] for node in graph.versions_of(1)] \
                == [["/a", "/b"]] * 3
            for name in ("/a", "/b"):
                assert sorted(node.ref.version
                              for node in graph.named(name)) == [0, 1, 2]
        assert graph_fingerprint(applied) == graph_fingerprint(built)

    def test_name_and_version_indexes_hold_a_lone_node_bare(self):
        graph = OEMGraph()
        graph.apply_batch([R(1, 0, Attr.NAME, "/a"), R(2, 0, Attr.NAME, "/b"),
                           R(2, 1, Attr.PID, 7)])
        one, two, three = (graph.node(ref) for ref in (
            ObjectRef(1, 0), ObjectRef(2, 0), ObjectRef(2, 1)))
        assert graph._by_pnode == {1: one, 2: [two, three]}
        assert graph._by_name == {"/a": one, "/b": [two, three]}
        assert graph.named("/a") == [one] and graph.named("/c") == []
        assert graph.versions_of(2) == [two, three]
        assert graph.versions_of(3) == []

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
        applied = graph.apply_batch([
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
        engine = QueryEngine.live([db])
        db.insert(R(1, 0, Attr.NAME, "/x"))
        assert engine.graph.named("/x")

    def test_from_records_is_a_static_snapshot(self):
        engine = QueryEngine.from_records([R(1, 0, Attr.NAME, "/x")])
        assert engine.graph.named("/x")

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


FILE_WHERE = "select F from Provenance.file as F where "


def cache_engine(obs=None):
    from repro.obs import NULL_OBS
    return QueryEngine(OEMGraph.build([
        R(1, 0, Attr.TYPE, ObjType.FILE), R(1, 0, Attr.NAME, "a  b"),
        R(2, 0, Attr.TYPE, ObjType.FILE), R(2, 0, Attr.NAME, "a b"),
        R(3, 0, Attr.TYPE, ObjType.FILE), R(3, 0, Attr.NAME, "it's"),
        R(3, 0, Attr.TIME, 7),
    ]), obs=obs or NULL_OBS)


class TestPlanCache:
    def test_plan_cache_normalizes_whitespace(self):
        engine = QueryEngine.from_records([])
        a = engine.plan("select F from Provenance.file as F")
        b = engine.plan("select  F\n from   Provenance.file as F")
        assert a is b
        assert b.text == "select  F\n from   Provenance.file as F"

    def test_one_shape_for_every_spelling(self):
        engine = cache_engine()
        spellings = [
            FILE_WHERE + 'F.name = "x"',
            FILE_WHERE + "F.name = 'x'",
            FILE_WHERE + "F.name == 'a much longer literal'",
            'SELECT F From Provenance.file AS F WHERE F.name = "x\\"y"',
            'select F # every file\nfrom Provenance.file as F '
            '# by name\nwhere F.name="it\'s"',
        ]
        shapes = {engine.plan(text).shape for text in spellings}
        assert shapes == {"select F from Provenance . file as F "
                          "where F . name = ?s"}
        assert len(engine._plans) == 1
        assert engine.plan(spellings[3]).params == ('x"y',)
        assert planned_refs(engine, spellings[4]) == [ObjectRef(3, 0)]

    def test_structure_is_part_of_the_shape(self):
        engine = cache_engine()
        base = engine.plan(FILE_WHERE + "F.time = 7").shape
        for other in (FILE_WHERE + 'F.time = "7"',      # literal type
                      FILE_WHERE + "F.time = -7",       # unary minus
                      FILE_WHERE + "F.Time = 7",        # identifier case
                      FILE_WHERE + "F.time = 7 limit 1",
                      FILE_WHERE + "F.time = 7 limit 2",
                      FILE_WHERE + "F.time = 7 and true",
                      FILE_WHERE + "F.time = 7 and false"):
            assert engine.plan(other).shape != base, other
        one = "select A from Provenance.file as F, F.input{1,2} as A"
        assert (engine.plan(one).shape
                != engine.plan(one.replace("{1,2}", "{1,3}")).shape)
        assert engine.plan(FILE_WHERE + "F.time = 8.5").shape == base
        assert engine.plan(one + " limit 1").query.limit == 1
        assert engine.plan(one + " limit 2").query.limit == 2

    def test_spaces_inside_a_string_literal_are_kept(self):
        # The text-keyed cache collapsed them and answered the second
        # query with the first one's literal.
        engine = cache_engine()
        assert planned_refs(
            engine, FILE_WHERE + 'F.name = "a  b"') == [ObjectRef(1, 0)]
        assert planned_refs(
            engine, FILE_WHERE + 'F.name = "a b"') == [ObjectRef(2, 0)]

    def test_comment_ends_at_its_newline(self):
        # Folding the newline away commented the WHERE clause out (or,
        # cached the other way round, back in).
        engine = cache_engine()
        filtered = ('select F from Provenance.file as F # all\n'
                    ' where F.name = "a b"')
        unfiltered = filtered.replace("\n", "")
        assert planned_refs(engine, filtered) == [ObjectRef(2, 0)]
        assert len(planned_refs(engine, unfiltered)) == 3
        assert engine.plan(filtered) is not engine.plan(unfiltered)

    def test_repeat_of_a_text_takes_its_literals_into_one_plan(self):
        engine = cache_engine()
        first, second = (FILE_WHERE + 'F.name = "a b"',
                         FILE_WHERE + 'F.name = "it\'s"')
        plan = engine.plan(first)
        assert engine.plan(first) is plan and plan.params == ("a b",)
        assert engine.plan(second) is plan and plan.params == ("it's",)
        assert plan.text == second
        # The source AST is the first text's, never rebound.
        assert plan.query == parse(first)
        assert plan.query.where.right.value == "a b"
        assert planned_refs(engine, second) == [ObjectRef(3, 0)]
        assert planned_refs(engine, first) == [ObjectRef(2, 0)]

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

    def test_check_runs_once_per_shape_per_epoch(self):
        from repro.obs import Observability
        obs = Observability(metrics_enabled=True)
        engine = cache_engine(obs)
        for name in ("a", "b", "c", "d"):
            engine.execute(FILE_WHERE + f'F.name = "{name}"')
        counters = obs.stats()["pql"]["counters"]
        assert (counters["parses"], counters["plan_compiles"]) == (1, 1)
        assert counters["parse_cache_hits"] == 3
        assert counters["check_cache_hits"] == 3
        engine.graph.apply_batch([R(9, 0, "BRAND_NEW_LABEL", 1)])
        for name in ("e", "f"):
            engine.execute(FILE_WHERE + f'F.name = "{name}"')
        counters = obs.stats()["pql"]["counters"]
        assert counters["parses"] == 1
        assert counters["check_cache_hits"] == 4     # re-checked once

    def test_sibling_of_another_type_is_still_flagged(self):
        # PL110 reads a literal's type category; the placeholder keeps
        # it, so a str plan's verdict is never lent to a number sibling.
        from repro.lint.pqlcheck import check_query
        engine = cache_engine()
        text, number = FILE_WHERE + 'F.name = "a b"', FILE_WHERE + "F.name = 5"
        assert planned_refs(engine, text) == [ObjectRef(2, 0)]
        for sibling in (number, FILE_WHERE + "F.name = 77"):
            plan = engine.plan(sibling)
            assert plan.shape != engine.plan(text).shape
            found = check_query(engine.plan(sibling).query,
                                engine.vocabulary())
            assert [d.code for d in found] == ["PL110"]
            assert [d.code for d in engine.lint(sibling)] == ["PL110"]
            assert engine.execute(sibling) == []
        assert not check_query(engine.plan(text).query, engine.vocabulary())

    def test_cache_is_a_bounded_lru(self, monkeypatch):
        from repro.obs import Observability
        from repro.pql import engine as engine_module
        monkeypatch.setattr(engine_module, "PLAN_CACHE_SHAPES", 4)
        obs = Observability(metrics_enabled=True)
        engine = cache_engine(obs)
        texts = [FILE_WHERE + f'F.name = "a b" limit {n}'
                 for n in range(1, 11)]
        for text in texts:
            assert planned_refs(engine, text) == [ObjectRef(2, 0)]
        assert len(engine._plans) == 4
        counters = obs.stats()["pql"]["counters"]
        assert counters["plan_evictions"] == 6
        assert counters["plan_compiles"] == 10
        # The oldest shape was evicted: it compiles again and answers.
        assert planned_refs(engine, texts[0]) == [ObjectRef(2, 0)]
        assert obs.stats()["pql"]["counters"]["plan_compiles"] == 11
        # Use keeps a shape: texts[7] is the oldest now; touched, it
        # outlives texts[8] when one more shape arrives.
        from repro.pql.lexer import parameterize
        engine.execute(texts[7])
        engine.execute(FILE_WHERE + "F.time = 7")
        assert len(engine._plans) == 4
        assert parameterize(texts[7])[0] in engine._plans
        assert parameterize(texts[8])[0] not in engine._plans


class TestPlanCacheObservability:
    FIRST = FILE_WHERE + 'F.name = "a b"'
    SECOND = FILE_WHERE + "F.name = 'it\\'s'"
    SHAPE = "select F from Provenance . file as F where F . name = ?s"

    def test_journal_and_explain_show_the_callers_literals(self):
        from repro.obs import Observability
        obs = Observability(journal_enabled=True)
        obs.journal.slow_query_threshold_s = 0.0
        engine = cache_engine(obs)
        engine.execute(self.FIRST)
        report = engine.explain(self.SECOND)
        assert report["query"] == self.SECOND
        assert report["shape"] == self.SHAPE
        assert report["rows"] == 1
        compiles = obs.journal.events("pql.plan_compile")
        assert [(e["query"], e["shape"]) for e in compiles] == [
            (self.FIRST, self.SHAPE)]
        slow = obs.journal.slow_queries()
        assert [e["query"] for e in slow] == [self.FIRST, self.SECOND]
        assert [e["cache_hit"] for e in slow] == [False, True]
        assert {e["shape"] for e in slow} == {self.SHAPE}
        # One compiled plan; each entry renders the literals it ran with.
        plan = engine.plan(self.SECOND)
        assert plan.params == ("it's",) and plan.source == self.FIRST
        assert [e["plan"] for e in slow] == [
            f"<CompiledPlan {self.SHAPE!r} ('a b',)>",
            f"<CompiledPlan {self.SHAPE!r} (\"it's\",)>"]
        explained, = obs.journal.events("pql.plan_explain")
        assert explained["query"] == self.SECOND
        assert explained["shape"] == self.SHAPE

    def test_explain_counts_the_cache_as_execute_does(self):
        # EXPLAIN reads the plan its execution just ran: a never-seen
        # query is one parse and no cache hit, a sibling one hit.
        from repro.obs import Observability
        obs = Observability(metrics_enabled=True)
        engine = cache_engine(obs)
        assert engine.explain(self.FIRST)["rows"] == 1
        counters = obs.stats()["pql"]["counters"]
        assert (counters["parses"], counters.get("parse_cache_hits", 0)) \
            == (1, 0)
        assert engine.explain(self.SECOND)["query"] == self.SECOND
        counters = obs.stats()["pql"]["counters"]
        assert (counters["parses"], counters["parse_cache_hits"]) == (1, 1)

    def test_check_error_is_positioned_in_the_callers_text(self):
        from repro.core.errors import PQLNameError
        engine = cache_engine()
        for literal in ("x", "a much longer literal", "y"):
            text = FILE_WHERE + f'F.name = "{literal}" and F.nmae = 1'
            with pytest.raises(PQLNameError, match="PL101") as exc:
                engine.execute(text)
            assert (exc.value.line, exc.value.column) == (
                1, text.index("nmae"))
        assert len(engine._plans) == 1

    def test_evaluation_error_is_positioned_in_the_callers_text(self):
        from repro.core.errors import PQLNameError
        engine = cache_engine()
        for literal in ("x", "a much longer literal", "y"):
            text = (f'select F from Provenance.file as F\n where '
                    f'F.name != "{literal}" and frob(F.name) = "{literal}"')
            with pytest.raises(PQLNameError, match="frob") as exc:
                engine.execute(text, check=False)
            assert (exc.value.line, exc.value.column) == (
                2, text.split("\n")[1].index("frob"))


class TestEngine:
    def test_from_databases_merges(self):
        from repro.storage.database import ProvenanceDatabase
        db1 = ProvenanceDatabase("a")
        db2 = ProvenanceDatabase("b")
        db1.insert(R(1, 0, Attr.TYPE, ObjType.FILE))
        db2.insert(R(2, 0, Attr.TYPE, ObjType.FILE))
        engine = QueryEngine.live([db1, db2])
        assert engine.execute("select count(F) from Provenance.file as F") \
            == [2]

    def test_the_plan_is_cached_per_shape(self):
        engine = QueryEngine.from_records([])
        text = 'select F from Provenance.file as F where F.name = "a"'
        plan = engine.plan(text)
        assert engine.plan(text) is plan
        assert engine.plan(text.replace('"a"', '"b"')) is plan
        assert plan.query == parse(text)            # the source AST
        assert plan.params == ("b",)

    def test_execute_refs_conversion(self):
        engine = QueryEngine.from_records([
            R(5, 1, Attr.TYPE, ObjType.FILE),
            R(5, 1, Attr.NAME, "/x"),
        ])
        refs = planned_refs(engine, "select F from Provenance.file as F")
        assert refs == [ObjectRef(5, 1)]
        rows = planned_refs(engine,
                            "select F, F.name from Provenance.file as F")
        assert rows == [(ObjectRef(5, 1), "/x")]
