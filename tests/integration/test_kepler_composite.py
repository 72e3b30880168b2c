"""Tests for composite (hierarchical) workflow actors."""

import pytest

from repro.apps.kepler import (
    FileSink,
    FileSource,
    Transformer,
    Workflow,
    run_workflow,
)
from repro.apps.kepler.composite import Collector, CompositeActor, Injector
from repro.core.errors import WorkflowError
from repro.core.records import Attr, ObjType
from tests.conftest import read_file, write_file
from repro.query.helpers import ancestry_refs


def make_normalizer() -> Workflow:
    """Inner workflow: strip -> lower (two stages)."""
    inner = Workflow("normalizer")
    inner.add(Injector("feed"))
    inner.add(Transformer("strip", fn=lambda data: data.strip()))
    inner.add(Transformer("lower", fn=lambda data: data.lower()))
    inner.add(Collector("result"))
    inner.connect("feed", "out", "strip", "in")
    inner.connect("strip", "out", "lower", "in")
    inner.connect("lower", "out", "result", "in")
    return inner


def make_outer(in_path, out_path) -> Workflow:
    outer = Workflow("outer")
    outer.add(FileSource("src", path=in_path))
    outer.add(CompositeActor("normalize", make_normalizer(),
                             inputs={"in": "feed"},
                             outputs={"out": "result"}))
    outer.add(FileSink("sink", path=out_path))
    outer.connect("src", "out", "normalize", "in")
    outer.connect("normalize", "out", "sink", "in")
    return outer


class TestExecution:
    def test_composite_transforms_data(self, system):
        write_file(system, "/pass/in", b"  HELLO Composite  ")
        run_workflow(system, make_outer("/pass/in", "/pass/out"),
                     recording=None)
        assert read_file(system, "/pass/out") == b"hello composite"

    def test_composite_fires_inner_stages(self, system):
        write_file(system, "/pass/in", b"X")
        director = run_workflow(system,
                                make_outer("/pass/in", "/pass/out"),
                                recording=None)
        # Outer firings only (src, composite, sink); the inner director
        # counts its own.
        assert director.firings == 3

    def test_multiple_firings_reuse_inner(self, system):
        write_file(system, "/pass/in", b" A ")
        wf = make_outer("/pass/in", "/pass/out")
        run_workflow(system, wf, recording=None, iterations=3)
        assert read_file(system, "/pass/out") == b"a"

    def test_bad_port_mapping_rejected(self):
        inner = make_normalizer()
        with pytest.raises(WorkflowError):
            CompositeActor("bad", inner, inputs={"in": "strip"},
                           outputs={"out": "result"})
        with pytest.raises(WorkflowError):
            CompositeActor("bad", inner, inputs={"in": "feed"},
                           outputs={"out": "lower"})


class TestCompositeProvenance:
    def test_inner_operators_recorded(self, system):
        write_file(system, "/pass/in", b" DATA ")
        run_workflow(system, make_outer("/pass/in", "/pass/out"),
                     recording="pass")
        system.sync()
        db = system.database("pass")
        operator_names = set()
        for ref in db.subjects_with_attr(Attr.TYPE):
            if ObjType.OPERATOR in db.attribute_values(ref, Attr.TYPE):
                operator_names.update(
                    db.attribute_values(ref, Attr.NAME))
        # Both granularities are present: the composite and its insides.
        assert "normalize" in operator_names
        assert {"strip", "lower"} <= operator_names

    def test_output_ancestry_crosses_both_levels(self, system):
        write_file(system, "/pass/in", b" DATA ")
        run_workflow(system, make_outer("/pass/in", "/pass/out"),
                     recording="pass")
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/out")[0]
        names = set()
        for ref in ancestry_refs(system.query_engine().graph, out_ref):
            names.update(db.attribute_values(ref, Attr.NAME))
        assert "normalize" in names          # the composite operator
        assert "src" in names                # outer neighbors

    def test_nested_composites(self, system):
        """A composite inside a composite still runs and records."""
        innermost = Workflow("innermost")
        innermost.add(Injector("feed"))
        innermost.add(Transformer("exclaim", fn=lambda d: d + b"!"))
        innermost.add(Collector("result"))
        innermost.connect("feed", "out", "exclaim", "in")
        innermost.connect("exclaim", "out", "result", "in")

        middle = Workflow("middle")
        middle.add(Injector("feed"))
        middle.add(CompositeActor("shout", innermost,
                                  inputs={"in": "feed"},
                                  outputs={"out": "result"}))
        middle.add(Collector("result"))
        middle.connect("feed", "out", "shout", "in")
        middle.connect("shout", "out", "result", "in")

        outer = Workflow("outer")
        outer.add(FileSource("src", path="/pass/in"))
        outer.add(CompositeActor("wrap", middle,
                                 inputs={"in": "feed"},
                                 outputs={"out": "result"}))
        outer.add(FileSink("sink", path="/pass/out"))
        outer.connect("src", "out", "wrap", "in")
        outer.connect("wrap", "out", "sink", "in")

        write_file(system, "/pass/in", b"deep")
        run_workflow(system, outer, recording="pass")
        assert read_file(system, "/pass/out") == b"deep!"
