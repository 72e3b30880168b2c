"""CLI integration: `repro lint` and `repro fsck`'s JSON report."""

import json

import pytest

from repro.cli import main
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.storage.database import ProvenanceDatabase


class TestLintCommand:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_module_target(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "apps"
        pkg.mkdir(parents=True)
        bad = pkg / "evil.py"
        bad.write_text("from repro.kernel.kernel import Kernel\n")
        assert main(["lint", str(bad)]) == 1
        assert "PL201" in capsys.readouterr().out

    def test_warnings_pass_unless_strict(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "apps"
        pkg.mkdir(parents=True)
        (pkg / "wild.py").write_text("from os import *\n")
        assert main(["lint", str(pkg)]) == 0
        assert main(["lint", "--strict", str(pkg)]) == 1
        assert "PL207" in capsys.readouterr().out

    def test_unparseable_module_fails_strict(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "apps"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def broken(:\n")
        assert main(["lint", "--strict", str(pkg)]) == 1
        assert "PL200" in capsys.readouterr().out

    def test_nothing_to_check_is_usage_error(self, capsys):
        assert main(["lint"]) == 2

    def test_missing_target_is_usage_error(self, capsys):
        assert main(["lint", "/does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_target_outside_repro_is_usage_error(self, tmp_path, capsys):
        # A module outside any repro package has no layer to check: it
        # must not pass as clean, as a file or through its directory.
        stray = tmp_path / "x" / "mod.py"
        stray.parent.mkdir()
        stray.write_text("from os import *\n")
        assert main(["lint", "--strict", str(stray)]) == 2
        assert main(["lint", "--strict", str(stray.parent)]) == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        assert "no module of the repro package" in captured.err


def _store(tmp_path, records):
    database = ProvenanceDatabase("t")
    database.insert_many(records)
    path = tmp_path / "store.db"
    database.save(str(path))
    return str(path)


def _ref(pnode, version=0):
    return ObjectRef(pnode, version)


class TestFsckCommand:
    def clean_records(self):
        return [
            ProvenanceRecord(_ref(1), Attr.TYPE, "FILE"),
            ProvenanceRecord(_ref(1), Attr.NAME, "/pass/a"),
        ]

    def dirty_records(self):
        # Ancestry without a TYPE record anywhere -> "missing-type".
        return [ProvenanceRecord(_ref(1), Attr.INPUT, _ref(2))]

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        path = _store(tmp_path, self.clean_records())
        assert main(["fsck", "--db", path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        path = _store(tmp_path, self.dirty_records())
        assert main(["fsck", "--db", path]) == 1
        assert "missing-type" in capsys.readouterr().out

    def test_json_reporter(self, tmp_path, capsys):
        path = _store(tmp_path, self.dirty_records())
        assert main(["fsck", "--db", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        checks = {finding["check"] for finding in payload["findings"]}
        assert "missing-type" in checks
        assert payload["records_checked"] == 1

    def test_json_reporter_clean(self, tmp_path, capsys):
        path = _store(tmp_path, self.clean_records())
        assert main(["fsck", "--db", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []

    def test_missing_export_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.db")
        assert main(["fsck", "--db", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fsck: {missing}: No such file or directory\n"

    def test_corrupt_export_is_usage_error(self, tmp_path, capsys):
        path = _store(tmp_path, self.clean_records())
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-3])
        assert main(["fsck", "--db", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fsck: {path}: ")
        assert captured.err.count("\n") == 1
