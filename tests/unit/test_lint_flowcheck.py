"""Per-rule tests for the passflow dataflow checker (PL3xx), plus the
suppression machinery it shares with the PL2xx import rules."""

import os

from repro.lint.flowcheck import analyze_tree

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src", "repro")


def write_tree(tmp_path, files):
    """Materialize ``{relpath: source}`` under a ``repro`` package."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return str(root)


def codes_of(tmp_path, files):
    return [d.code for d in analyze_tree(write_tree(tmp_path, files))]


#: A core class that legitimately holds a kernel object (core may
#: import the interception boundary), used by the reach fixtures.
CORE_THING = (
    "from repro.kernel.kernel import Kernel\n"
    "\n"
    "class Thing:\n"
    "    def __init__(self, kernel: Kernel):\n"
    "        self.kernel = kernel\n"
    "    def run(self) -> int:\n"
    "        return 1\n"
)

KERNEL_KERNEL = (
    "class Kernel:\n"
    "    def __init__(self):\n"
    "        self.started = False\n"
    "        self._plist = []\n"
    "    def boot(self):\n"
    "        self.started = True\n"
)


class TestPL301ObjectReach:
    def test_reach_through_object_crosses_layer(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "core/thing.py": CORE_THING,
            "apps/tool.py": (
                "from repro.core.thing import Thing\n"
                "def run(thing: Thing):\n"
                "    thing.kernel.boot()\n"),
        })
        assert found == ["PL301"]

    def test_reach_within_allowed_layer_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "core/thing.py": CORE_THING,
            "apps/tool.py": (
                "from repro.core.thing import Thing\n"
                "def run(thing: Thing):\n"
                "    return thing.run()\n"),
        })
        assert found == []

    def test_reach_via_local_rebinding(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "core/thing.py": CORE_THING,
            "apps/tool.py": (
                "from repro.core.thing import Thing\n"
                "def run(thing: Thing):\n"
                "    k = thing.kernel\n"
                "    k.boot()\n"),
        })
        assert found == ["PL301"]


class TestPL302PrivateReach:
    def test_typed_private_reach(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "core/thing.py": CORE_THING,
            "apps/tool.py": (
                "from repro.core.thing import Thing\n"
                "def run(thing: Thing):\n"
                "    return thing.kernel._plist\n"),
        })
        assert found == ["PL302"]

    def test_untyped_reach_falls_back_to_ownership_index(self, tmp_path):
        # No annotation anywhere: only the private-name ownership index
        # can tell that _plist lives in the kernel layer.
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "apps/tool.py": (
                "def poke(k):\n"
                "    return k._plist\n"),
        })
        assert found == ["PL302"]

    def test_same_component_private_reach_is_idiomatic(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/kernel.py": KERNEL_KERNEL,
            "kernel/tools.py": (
                "from repro.kernel.kernel import Kernel\n"
                "def drain(k: Kernel):\n"
                "    return k._plist\n"),
        })
        assert found == []


class TestPL303BatchMutation:
    def test_entry_point_mutating_its_batch(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/store.py": (
                "class Log:\n"
                "    def __init__(self):\n"
                "        self._records = []\n"
                "    def append_batch(self, records):\n"
                "        records.append(None)\n"),
        })
        assert found == ["PL303"]

    def test_copying_into_own_state_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/store.py": (
                "class Log:\n"
                "    def __init__(self):\n"
                "        self._records = []\n"
                "    def append_batch(self, records):\n"
                "        self._records.extend(records)\n"),
        })
        assert found == []

    def test_defensive_copy_rebind_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/store.py": (
                "class Log:\n"
                "    def __init__(self):\n"
                "        self._records = []\n"
                "    def append_batch(self, records):\n"
                "        records = list(records)\n"
                "        records.append(None)\n"
                "        self._records.extend(records)\n"),
        })
        assert found == []

    def test_retained_and_mutated_batch(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/store.py": (
                "class Log:\n"
                "    def append_batch(self, records):\n"
                "        self._pending = records\n"
                "    def poke(self):\n"
                "        self._pending.append(1)\n"),
        })
        assert found == ["PL303"]

    def test_retained_but_never_mutated_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/store.py": (
                "class Log:\n"
                "    def append_batch(self, records):\n"
                "        self._pending = records\n"
                "    def peek(self):\n"
                "        return len(self._pending)\n"),
        })
        assert found == []


class TestPL304SharedState:
    def test_module_mutable_written_from_function(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/cache.py": (
                "_CACHE = {}\n"
                "def put(key, value):\n"
                "    _CACHE[key] = value\n"),
        })
        assert found == ["PL304"]

    def test_global_rebinding_counter(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/ids.py": (
                "_next = 1\n"
                "def mint():\n"
                "    global _next\n"
                "    _next += 1\n"
                "    return _next\n"),
        })
        assert found == ["PL304"]

    def test_itertools_count_mint_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/ids.py": (
                "import itertools\n"
                "_IDS = itertools.count(1)\n"
                "def mint():\n"
                "    return next(_IDS)\n"),
        })
        assert found == []

    def test_class_level_counter_write(self, tmp_path):
        found = codes_of(tmp_path, {
            "kernel/ids.py": (
                "class Minter:\n"
                "    count = 0\n"
                "def bump():\n"
                "    Minter.count += 1\n"),
        })
        assert found == ["PL304"]

    def test_storage_state_written_from_outside(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/waldo.py": (
                "class Waldo:\n"
                "    def __init__(self):\n"
                "        self.pending = []\n"),
            "query/feed.py": (
                "from repro.storage.waldo import Waldo\n"
                "def reset(w: Waldo, items):\n"
                "    w.pending = list(items)\n"),
        })
        assert found == ["PL304"]

    def test_storage_writing_its_own_state_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "storage/waldo.py": (
                "class Waldo:\n"
                "    def __init__(self):\n"
                "        self.pending = []\n"),
            "storage/drainer.py": (
                "from repro.storage.waldo import Waldo\n"
                "def reset(w: Waldo, items):\n"
                "    w.pending = list(items)\n"),
        })
        assert found == []


class TestPL305DynamicImports:
    def test_non_constant_argument_is_flagged(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/dyn.py": (
                "import importlib\n"
                "def load(name):\n"
                "    return importlib.import_module(name)\n"),
        })
        assert found == ["PL305"]

    def test_constant_argument_folds_into_layer_rules(self, tmp_path):
        # The disguised import is judged exactly like the static
        # equivalent: an app reaching storage is PL201.
        found = codes_of(tmp_path, {
            "apps/dyn.py": (
                "import importlib\n"
                "def load():\n"
                '    return importlib.import_module("repro.storage.waldo")\n'),
        })
        assert found == ["PL201"]

    def test_dunder_import_also_folds(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/dyn.py": (
                "def load():\n"
                '    return __import__("repro.storage.waldo")\n'),
        })
        assert found == ["PL201"]

    def test_constant_import_of_allowed_layer_is_clean(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/dyn.py": (
                "import importlib\n"
                "def load():\n"
                '    return importlib.import_module("repro.core.records")\n'),
        })
        assert found == []

    def test_function_local_importlib_is_seen(self, tmp_path):
        # The deferred-import disguise: importlib itself only bound
        # inside the function body.
        found = codes_of(tmp_path, {
            "apps/dyn.py": (
                "def load():\n"
                "    import importlib\n"
                '    return importlib.import_module("repro.storage.waldo")\n'),
        })
        assert found == ["PL201"]


class TestSuppressions:
    def test_suppression_silences_the_diagnostic(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/tool.py": (
                "from repro.kernel.kernel import Kernel"
                "  # lint: disable=PL201\n"),
            "kernel/kernel.py": KERNEL_KERNEL,
        })
        assert found == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/tool.py": (
                "from repro.kernel.kernel import Kernel"
                "  # lint: disable=PL305\n"),
            "kernel/kernel.py": KERNEL_KERNEL,
        })
        assert sorted(found) == ["PL201", "PL306"]

    def test_unused_suppression_is_reported(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/tool.py": "X = 1  # lint: disable=PL201\n",
        })
        assert found == ["PL306"]

    def test_marker_inside_string_is_not_a_suppression(self, tmp_path):
        found = codes_of(tmp_path, {
            "apps/tool.py": 'DOC = "# lint: disable=PL201"\n',
        })
        assert found == []


class TestShippedTree:
    def test_shipped_tree_is_flow_clean(self):
        assert analyze_tree(SRC_ROOT) == []
