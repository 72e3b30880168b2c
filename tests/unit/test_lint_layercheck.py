"""Per-rule tests for the source-tree checker (PL2xx, PL303), plus the
gate that the shipped tree itself is violation-free."""

import os

import pytest

from repro.lint.layercheck import check_source, check_tree

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src", "repro")


def codes(source, module):
    return [d.code for d in check_source(source, module)]


#: (code, module the source pretends to be, violating source,
#:  clean source for the same module)
RULE_CASES = [
    ("PL201", "repro.apps.badapp",
     "from repro.kernel.kernel import Kernel\n",
     "from repro.core.records import Attr\n"),
    ("PL201", "repro.apps.badapp",
     "import repro.storage.lasagna\n",
     "import repro.apps.shellutils\n"),
    ("PL202", "repro.core.badcore",
     "from repro.storage.database import ProvenanceDatabase\n",
     "from repro.kernel.process import Process\n"),
    ("PL202", "repro.core.badcore",
     "from repro.kernel.disk import SimulatedDisk\n",
     "from repro.kernel.vfs import Inode\n"),
    ("PL203", "repro.pql.badpql",
     "from repro.nfs.server import NFSServer\n",
     "from repro.core.records import Attr\n"),
    ("PL203", "repro.kernel.badkernel",
     "from repro.nfs.server import NFSServer\n",
     "from repro.core.pnode import ObjectRef\n"),
    ("PL205", "repro.apps.badapp",
     "from repro.core.records import Attr\nX = Attr.BEGINTXN\n",
     "from repro.core.records import Attr\nX = Attr.FREEZE\n"),
    ("PL205", "repro.query.badquery",
     'FRAME = "ENDTXN"\n',
     'FRAME = "INPUT"\n'),
    ("PL206", "repro.query.badquery",
     "def f(record):\n    object.__setattr__(record, 'value', 1)\n",
     "class C:\n    def __init__(self):\n"
     "        object.__setattr__(self, 'x', 1)\n"),
    ("PL206", "repro.query.badquery",
     "def f(record, v):\n    record.value = v\n",
     "def f(node, v):\n    node.payload = v\n"),
    ("PL207", "repro.workloads.sloppy",
     "from repro.core.records import *\n",
     "from repro.core.records import Attr\n"),
    ("PL208", "repro.obs.badobs",
     "from repro.storage.log import ProvenanceLog\n",
     "from repro.obs.metrics import MetricsRegistry\n"),
    ("PL208", "repro.obs.badobs",
     "from repro.core.records import Attr\n",
     "import collections\n"),
    ("PL209", "repro.faults.badfault",
     "from repro.storage.log import ProvenanceLog\n",
     "from repro.kernel.clock import SimClock\n"),
    ("PL209", "repro.faults.badfault",
     "from repro.core.errors import NetworkPartition\n",
     "from repro.obs import NULL_OBS\n"),
    ("PL210", "repro.pql.badpql",
     "from repro.storage.waldo import Waldo\n",
     "from repro.core.records import Attr\n"),
    ("PL210", "repro.pql.badpql",
     "import repro.storage.database\n",
     "from repro.lint.pqlcheck import Vocabulary\n"),
    # Record names are whole words of the variable name, not fragments.
    ("PL206", "repro.kernel.x",
     "def f(rec, v):\n    rec.value = v\n",
     "def f(direction, v):\n    direction.value = v\n"),
    ("PL206", "repro.kernel.x",
     "def f(protos, v):\n    protos.value = v\n",
     "def f(reception, v):\n    reception.attr = v\n"),
]


class TestEveryRule:
    @pytest.mark.parametrize(
        "code,module,bad,clean", RULE_CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(RULE_CASES)])
    def test_rule_triggers_and_clears(self, code, module, bad, clean):
        assert code in codes(bad, module)
        assert code not in codes(clean, module)


class TestBoundaries:
    def test_facade_unreachable_from_below(self):
        assert "PL202" in codes("import repro.system\n",
                                "repro.core.badcore")
        assert "PL203" in codes("from repro.cli import main\n",
                                "repro.storage.badstore")

    def test_nfs_may_drive_whole_systems(self):
        assert codes("from repro.system import System\n",
                     "repro.nfs.client") == []

    def test_storage_may_serve_queries(self):
        assert codes("from repro.pql.engine import QueryEngine\n",
                     "repro.storage.waldo") == []

    def test_obs_importable_from_every_layer(self):
        # The observability layer is a leaf: anything may use it.
        for module in ("repro.kernel.badk", "repro.core.badc",
                       "repro.storage.bads", "repro.pql.badp",
                       "repro.nfs.badn", "repro.apps.bada",
                       "repro.query.badq", "repro.workloads.badw",
                       "repro.lint.badl"):
            assert codes("from repro.obs import NULL_OBS\n", module) == []

    def test_obs_must_stay_a_leaf(self):
        # ...and in exchange it may import nothing from repro itself.
        found = codes("from repro.kernel.clock import SimClock\n",
                      "repro.obs.badobs")
        assert "PL208" in found

    def test_fault_layer_is_widely_importable(self):
        # Any component that hosts an injection site may take a
        # FaultInjector; the harness layers above use the plans too.
        for module in ("repro.kernel.badk", "repro.core.badc",
                       "repro.storage.bads", "repro.nfs.badn"):
            assert codes("from repro.faults import FaultInjector\n",
                         module) == []

    def test_fault_layer_reaches_only_kernel_and_obs(self):
        # ...and in exchange it sees nothing above the kernel: the
        # injector must never depend on the components it perturbs.
        assert "PL209" in codes(
            "from repro.storage.waldo import Waldo\n",
            "repro.faults.badfault")
        assert "PL209" in codes(
            "from repro.nfs.network import Network\n",
            "repro.faults.badfault")
        assert codes("from repro.kernel.clock import SimClock\n"
                     "from repro.obs import NULL_OBS\n",
                     "repro.faults.goodfault") == []

    def test_relative_import_resolves_against_module(self):
        # "from ..storage import codec" inside repro.apps.x is a
        # repro.storage import, caught despite the relative spelling.
        assert "PL201" in codes("from ..storage import codec\n",
                                "repro.apps.badapp")

    def test_non_repro_imports_unconstrained(self):
        assert codes("import json\nfrom collections import deque\n",
                     "repro.apps.goodapp") == []

    def test_unparseable_module_is_reported_not_raised(self):
        found = check_source("def broken(:\n", "repro.apps.badapp")
        assert [d.code for d in found] == ["PL200"]
        assert found[0].line == 1


class TestPL303BatchMutation:
    def test_entry_point_mutating_its_batch(self):
        assert codes("class Log:\n"
                     "    def __init__(self):\n"
                     "        self._records = []\n"
                     "    def append_batch(self, records):\n"
                     "        records.append(None)\n",
                     "repro.storage.store") == ["PL303"]

    def test_copying_into_own_state_is_clean(self):
        assert codes("class Log:\n"
                     "    def __init__(self):\n"
                     "        self._records = []\n"
                     "    def append_batch(self, records):\n"
                     "        self._records.extend(records)\n",
                     "repro.storage.store") == []

    def test_defensive_copy_rebind_is_clean(self):
        assert codes("class Log:\n"
                     "    def __init__(self):\n"
                     "        self._records = []\n"
                     "    def append_batch(self, records):\n"
                     "        records = list(records)\n"
                     "        records.append(None)\n"
                     "        self._records.extend(records)\n",
                     "repro.storage.store") == []

    def test_retained_and_mutated_batch(self):
        assert codes("class Log:\n"
                     "    def append_batch(self, records):\n"
                     "        self._pending = records\n"
                     "    def poke(self):\n"
                     "        self._pending.append(1)\n",
                     "repro.storage.store") == ["PL303"]

    def test_retained_but_never_mutated_is_clean(self):
        assert codes("class Log:\n"
                     "    def append_batch(self, records):\n"
                     "        self._pending = records\n"
                     "    def peek(self):\n"
                     "        return len(self._pending)\n",
                     "repro.storage.store") == []


class TestPositions:
    def test_import_violation_is_positioned(self):
        source = "import json\nfrom repro.kernel.kernel import Kernel\n"
        found = [d for d in check_source(source, "repro.apps.badapp")
                 if d.code == "PL201"]
        assert found and found[0].line == 2


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        """The acceptance gate: `repro lint` finds zero violations on
        the tree as shipped."""
        assert check_tree(SRC_ROOT) == []

    def test_tree_walk_finds_planted_violation(self, tmp_path):
        pkg = tmp_path / "repro" / "apps"
        pkg.mkdir(parents=True)
        (pkg / "evil.py").write_text(
            "from repro.storage.lasagna import Lasagna\n")
        found = check_tree(str(tmp_path))
        assert [d.code for d in found] == ["PL201"]
        assert found[0].source.endswith("evil.py")
