"""The engine's static pre-pass: bad queries fail positioned and fast,
before the evaluator is ever invoked."""

import pytest

from repro.core.errors import PQLError, PQLNameError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.pql.engine import QueryEngine
from repro.pql.oem import OEMGraph


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


@pytest.fixture
def engine():
    return QueryEngine.from_records([
        R(1, 0, Attr.TYPE, ObjType.FILE),
        R(1, 0, Attr.NAME, "/data/a"),
        R(2, 0, Attr.TYPE, ObjType.PROCESS),
        R(2, 0, Attr.NAME, "prog"),
        R(1, 0, Attr.INPUT, ObjectRef(2, 0)),
        # An application-specific attribute outside the Attr vocabulary.
        R(1, 0, "CUSTOM_TAG", "v1"),
    ])


class TestPrePass:
    def test_unknown_attribute_rejected_before_evaluation(self):
        from repro.obs import Observability
        obs = Observability(trace_enabled=True)
        engine = QueryEngine(OEMGraph.build([
            R(1, 0, Attr.TYPE, ObjType.FILE)]), obs=obs)
        with pytest.raises(PQLNameError) as exc:
            engine.execute('select F from Provenance.file as F\n'
                           'where F.nmae = "x"')
        # The check ran; the evaluator and the planner never did.
        spans = {span["name"] for span in obs.trace()}
        assert "pql.check" in spans and "pql.eval" not in spans
        assert (engine.catalog.index_hits, engine.catalog.index_misses) \
            == (0, 0)
        assert "PL101" in str(exc.value)
        assert "(line 2, column 8)" in str(exc.value)
        assert exc.value.line == 2
        assert exc.value.column == 8

    def test_unbound_variable_rejected_with_position(self, engine):
        with pytest.raises(PQLNameError) as exc:
            engine.execute("select B from Nope.input as B")
        assert exc.value.line == 1

    def test_unknown_function_rejected(self, engine):
        with pytest.raises(PQLError):
            engine.execute("select frob(F) from Provenance.file as F")

    def test_opt_out_restores_lazy_behavior(self, engine):
        # With the pre-pass off, an unknown attribute is back to the
        # evaluator's empty-set semantics.
        rows = engine.execute('select F from Provenance.file as F '
                              'where F.nmae = "x"', check=False)
        assert rows == []

    def test_engine_constructed_unchecked(self):
        unchecked = QueryEngine.from_records([
            R(1, 0, Attr.TYPE, ObjType.FILE)])
        unchecked._check = False
        assert unchecked.execute(
            'select F from Provenance.file as F where F.zzz = 1') == []

    def test_graph_vocabulary_widens_the_static_one(self, engine):
        # CUSTOM_TAG is no part of Attr, but the graph holds it, so the
        # pre-pass must let it through.
        rows = engine.execute('select F from Provenance.file as F '
                              'where F.custom_tag = "v1"')
        assert len(rows) == 1

    def test_warnings_do_not_block(self, engine):
        # Unknown member is a warning (likely-empty), not an error.
        assert engine.execute(
            "select X from Provenance.martian as X") == []

    def test_good_query_still_runs(self, engine):
        rows = engine.execute('select F.name from Provenance.file as F '
                              'F.input as P where P.name = "prog"')
        assert rows == ["/data/a"]

    def test_lint_method_reports_without_raising(self, engine):
        diags = engine.lint('select F from Provenance.file as F '
                            'where F.nmae = "x"')
        assert [d.code for d in diags] == ["PL101"]


def test_a_query_loads_only_the_pql_checker():
    """The pre-pass needs ``repro.lint.pqlcheck``; the source-tree
    checker stays unimported until something asks for it."""
    import os
    import subprocess
    import sys
    script = (
        "import sys\n"
        "from repro.pql.engine import QueryEngine\n"
        "engine = QueryEngine.from_records([])\n"
        "assert engine.execute('select F from Provenance.file as F') == []\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.startswith('repro.lint')))\n")
    source = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(source))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    loaded = done.stdout
    assert "repro.lint.pqlcheck" in loaded
    assert "repro.lint.layercheck" not in loaded, loaded
