"""Symbol-table / call-graph construction over fixture modules, and
determinism of the graph export."""

import json
import os

from repro.lint.callgraph import (
    GRAPH_SCHEMA,
    build_program,
    graph_payload,
    render_graph_dot,
    scan_suppressions,
)
from repro.lint.flowcheck import check_program

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src", "repro")

FIXTURE = {
    "kernel/machine.py": (
        "class Machine:\n"
        "    def __init__(self):\n"
        "        self._parts = []\n"
        "    def start(self):\n"
        "        return len(self._parts)\n"
    ),
    "core/driver.py": (
        "from repro.kernel.machine import Machine\n"
        "\n"
        "class Driver:\n"
        "    def __init__(self, machine: Machine):\n"
        "        self.machine = machine\n"
        "    def go(self):\n"
        "        return self.machine.start()\n"
    ),
    "apps/ui.py": (
        "from repro.core.driver import Driver\n"
        "def press(driver: Driver):\n"
        "    return driver.go()\n"
    ),
}


def write_tree(tmp_path, files):
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(root)


class TestConstruction:
    def test_module_class_and_function_tables(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        assert set(program.modules) == {
            "repro.kernel.machine", "repro.core.driver", "repro.apps.ui"}
        assert "repro.kernel.machine.Machine" in program.classes
        assert "repro.core.driver.Driver.go" in program.functions
        assert program.functions["repro.apps.ui.press"].cls is None

    def test_attribute_types_from_param_annotations(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        driver = program.classes["repro.core.driver.Driver"]
        types = driver.attr_types["machine"]
        assert {t.qual for t in types} == {"repro.kernel.machine.Machine"}

    def test_private_ownership_index(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        assert program.private_owners["_parts"] == {"repro.kernel.machine"}

    def test_import_edges(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        assert program.edges[("repro.core.driver",
                              "repro.kernel.machine", "import")] == 1
        assert program.edges[("repro.apps.ui",
                              "repro.core.driver", "import")] == 1

    def test_flow_pass_adds_call_edges(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        check_program(program)
        # Driver.go reaches Machine.start through its typed attribute;
        # ui.press reaches Driver.go through its parameter.
        assert ("repro.core.driver", "repro.kernel.machine",
                "call") in program.edges
        assert ("repro.apps.ui", "repro.core.driver",
                "call") in program.edges


class TestSuppressionScanner:
    def test_trailing_comment(self):
        found = scan_suppressions("x = 1  # lint: disable=PL201,PL304\n")
        assert found == {1: {"PL201", "PL304"}}

    def test_string_literal_is_ignored(self):
        assert scan_suppressions('x = "# lint: disable=PL201"\n') == {}

    def test_unterminated_source_does_not_raise(self):
        assert scan_suppressions('x = "unclosed\n') == {}


class TestGraphExport:
    def test_payload_shape(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        check_program(program)
        payload = graph_payload(program)
        assert payload["schema"] == GRAPH_SCHEMA
        names = [m["name"] for m in payload["modules"]]
        assert names == sorted(names)
        layers = {m["name"]: m["layer"] for m in payload["modules"]}
        assert layers["repro.kernel.machine"] == "repro.kernel"
        assert layers["repro.apps.ui"] == "repro.apps"

    def test_export_is_deterministic_across_builds(self, tmp_path):
        root = write_tree(tmp_path, FIXTURE)
        dumps = []
        for _ in range(2):
            program = build_program(root)
            check_program(program)
            dumps.append(json.dumps(graph_payload(program), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_dot_rendering_mentions_every_module(self, tmp_path):
        program = build_program(write_tree(tmp_path, FIXTURE))
        dot = render_graph_dot(program)
        assert dot.startswith("digraph passflow {")
        for name in program.modules:
            assert f'"{name}"' in dot

    def test_shipped_tree_graph_is_deterministic(self):
        dumps = []
        for _ in range(2):
            program = build_program(SRC_ROOT)
            check_program(program)
            dumps.append(json.dumps(graph_payload(program), sort_keys=True))
        assert dumps[0] == dumps[1]
        payload = json.loads(dumps[0])
        # The batched ingest path must appear as real call edges.
        kinds = {(e["src"], e["dst"], e["kind"]) for e in payload["edges"]}
        assert ("repro.core.observer", "repro.kernel.volume",
                "call") in kinds
