"""PA-Kepler integration tests (paper section 6.2)."""

import pytest

from repro.apps.kepler import (
    Director,
    FileSink,
    FileSource,
    Transformer,
    Workflow,
    run_workflow,
)
from repro.apps.kepler.actors import ColumnExtractor, ExpressionEvaluator, LineParser
from repro.apps.kepler.challenge import (
    build_challenge,
    ensure_dirs,
    generate_inputs,
)
from repro.core.errors import WorkflowError
from repro.core.records import Attr, ObjType
from tests.conftest import read_file, write_file
from repro.query.helpers import ancestry_refs


def simple_workflow(in_path, out_path):
    wf = Workflow("simple")
    wf.add(FileSource("src", path=in_path))
    wf.add(Transformer("upper", fn=lambda data: data.upper()))
    wf.add(FileSink("sink", path=out_path))
    wf.connect("src", "out", "upper", "in")
    wf.connect("upper", "out", "sink", "in")
    return wf


class TestWorkflowConstruction:
    def test_duplicate_actor_rejected(self):
        wf = Workflow("w")
        wf.add(FileSource("a", path="/x"))
        with pytest.raises(WorkflowError):
            wf.add(FileSource("a", path="/y"))

    def test_unknown_port_rejected(self):
        wf = Workflow("w")
        wf.add(FileSource("a", path="/x"))
        wf.add(FileSink("b", path="/y"))
        with pytest.raises(WorkflowError):
            wf.connect("a", "nope", "b", "in")
        with pytest.raises(WorkflowError):
            wf.connect("a", "out", "b", "nope")

    def test_unwired_input_rejected(self):
        wf = Workflow("w")
        wf.add(FileSink("b", path="/y"))
        with pytest.raises(WorkflowError):
            wf.validate()

    def test_cycle_rejected(self):
        wf = Workflow("w")
        wf.add(Transformer("a", fn=lambda x: x))
        wf.add(Transformer("b", fn=lambda x: x))
        wf.connect("a", "out", "b", "in")
        wf.connect("b", "out", "a", "in")
        with pytest.raises(WorkflowError):
            wf.validate()

    def test_topological_order(self):
        wf = simple_workflow("/pass/in", "/pass/out")
        names = [actor.name for actor in wf.topological_order()]
        assert names.index("src") < names.index("upper") < names.index("sink")


class TestExecution:
    def test_simple_pipeline_runs(self, system):
        write_file(system, "/pass/in.txt", b"hello kepler")
        wf = simple_workflow("/pass/in.txt", "/pass/out.txt")
        director = run_workflow(system, wf, recording=None)
        assert director.firings == 3
        assert read_file(system, "/pass/out.txt") == b"HELLO KEPLER"

    def test_fan_out_duplicates_tokens(self, system):
        write_file(system, "/pass/in.txt", b"abc")
        wf = Workflow("fan")
        wf.add(FileSource("src", path="/pass/in.txt"))
        wf.add(FileSink("s1", path="/pass/o1"))
        wf.add(FileSink("s2", path="/pass/o2"))
        wf.connect("src", "out", "s1", "in")
        wf.connect("src", "out", "s2", "in")
        run_workflow(system, wf, recording=None)
        assert read_file(system, "/pass/o1") == b"abc"
        assert read_file(system, "/pass/o2") == b"abc"

    def test_tabular_pipeline(self, system):
        """The PA-Kepler workload shape: parse, extract, reformat."""
        write_file(system, "/pass/table.tsv",
                   b"a\t1\nb\t2\nc\t3\n")
        wf = Workflow("tabular")
        wf.add(FileSource("src", path="/pass/table.tsv"))
        wf.add(LineParser("parse"))
        wf.add(ColumnExtractor("extract", column=1))
        wf.add(ExpressionEvaluator("fmt", expression="value=%s"))
        wf.add(FileSink("sink", path="/pass/formatted.txt"))
        wf.connect("src", "out", "parse", "in")
        wf.connect("parse", "out", "extract", "in")
        wf.connect("extract", "out", "fmt", "in")
        wf.connect("fmt", "out", "sink", "in")
        run_workflow(system, wf, recording=None)
        assert read_file(system, "/pass/formatted.txt") == (
            b"value=1\nvalue=2\nvalue=3")

    def test_iterations(self, system):
        write_file(system, "/pass/in", b"x")
        wf = simple_workflow("/pass/in", "/pass/out")
        director = run_workflow(system, wf, recording=None, iterations=3)
        assert director.firings == 9


class TestRecordingBackends:
    def test_text_recorder(self, system):
        write_file(system, "/pass/in", b"x")
        wf = simple_workflow("/pass/in", "/pass/out")
        run_workflow(system, wf, recording="text",
                     text_log="/pass/kepler.log")
        log = read_file(system, "/pass/kepler.log").decode()
        assert "BEGIN workflow simple" in log
        assert "OPERATOR src" in log
        assert "TRANSFER src -> upper" in log
        assert "END workflow simple" in log

    def test_database_recorder(self, system):
        write_file(system, "/pass/in", b"x")
        wf = simple_workflow("/pass/in", "/pass/out")
        director = run_workflow(system, wf, recording="database")
        kinds = [row[0] for row in director.recorder.rows]
        assert kinds.count("operator") == 3
        assert "transfer" in kinds
        assert kinds[0] == "workflow_start"
        assert kinds[-1] == "workflow_end"

    def test_pass_recorder_creates_operator_objects(self, system):
        write_file(system, "/pass/in", b"x")
        wf = simple_workflow("/pass/in", "/pass/out")
        run_workflow(system, wf, recording="pass")
        system.sync()
        db = system.database("pass")
        operators = [ref for ref in db.subjects_with_attr(Attr.TYPE)
                     if ObjType.OPERATOR in db.attribute_values(ref, Attr.TYPE)]
        names = set()
        for ref in operators:
            names.update(db.attribute_values(ref, Attr.NAME))
        assert {"src", "upper", "sink"} <= names

    def test_pass_recorder_links_output_to_input_file(self, system):
        write_file(system, "/pass/in", b"data")
        wf = simple_workflow("/pass/in", "/pass/out")
        run_workflow(system, wf, recording="pass")
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/out")[0]
        ancestors = ancestry_refs(system.query_engine().graph, out_ref)
        names = set()
        types = set()
        for ref in ancestors:
            names.update(db.attribute_values(ref, Attr.NAME))
            types.update(db.attribute_values(ref, Attr.TYPE))
        # Through the operator chain back to the input file.
        assert "/pass/in" in names
        assert ObjType.OPERATOR in types
        assert {"src", "upper", "sink"} <= names

    def test_pass_recorder_records_params(self, system):
        write_file(system, "/pass/in", b"x")
        wf = simple_workflow("/pass/in", "/pass/out")
        run_workflow(system, wf, recording="pass")
        system.sync()
        db = system.database("pass")
        params = [r.value for r in db.all_records() if r.attr == Attr.PARAMS]
        assert any("path='/pass/in'" in value for value in params)


class TestChallengeWorkflow:
    def test_produces_three_atlases(self, system):
        ensure_dirs(system, "/pass/inputs", "/pass/work", "/pass/out")
        generate_inputs(system, "/pass/inputs")
        wf = build_challenge("/pass/inputs", "/pass/work", "/pass/out")
        director = run_workflow(system, wf, recording="pass")
        assert director.firings == 4 + 4 + 1 + 3 + 3
        for axis in "xyz":
            data = read_file(system, f"/pass/out/atlas-{axis}.gif")
            assert data.startswith(b"GIF89a")

    def test_atlas_ancestry_reaches_anatomy_inputs(self, system):
        ensure_dirs(system, "/pass/inputs", "/pass/work", "/pass/out")
        generate_inputs(system, "/pass/inputs")
        wf = build_challenge("/pass/inputs", "/pass/work", "/pass/out")
        run_workflow(system, wf, recording="pass")
        system.sync()
        rows = system.query("""
            select Ancestor
            from Provenance.file as Atlas
                 Atlas.input* as Ancestor
            where Atlas.name = "/pass/out/atlas-x.gif"
        """)
        names = {row.name for row in rows if hasattr(row, "name")}
        for i in (1, 2, 3, 4):
            assert f"/pass/inputs/anatomy{i}.img" in names
        assert "/pass/inputs/reference.img" in names

    def test_modified_input_changes_output(self, system):
        ensure_dirs(system, "/pass/inputs", "/pass/work", "/pass/out")
        generate_inputs(system, "/pass/inputs")
        wf = build_challenge("/pass/inputs", "/pass/work", "/pass/out")
        run_workflow(system, wf, recording="pass")
        first = read_file(system, "/pass/out/atlas-x.gif")
        write_file(system, "/pass/inputs/anatomy2.img", b"TAMPERED" * 64)
        run_workflow(system, wf, recording="pass")
        second = read_file(system, "/pass/out/atlas-x.gif")
        assert first != second
