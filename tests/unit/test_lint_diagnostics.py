"""Tests for the diagnostics framework: registry, report, reporter."""

import pytest

from repro.lint import LintReport, all_rules, render_text
from repro.lint.diagnostics import ERROR, WARNING, Diagnostic, rule


class TestRegistry:
    def test_rules_cover_both_analyzers(self):
        codes = {r.code for r in all_rules()}
        assert any(c.startswith("PL1") for c in codes)
        assert any(c.startswith("PL2") for c in codes)
        assert len(codes) >= 8

    def test_codes_are_unique_and_ordered(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            rule("PL101", ERROR, "imposter")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            rule("PL999", "fatal", "no such severity")

    def test_every_rule_has_title_and_detail(self):
        for registered in all_rules():
            assert registered.title
            assert registered.detail


class TestDiagnostic:
    def test_str_with_position(self):
        diag = Diagnostic("PL101", ERROR, "boom", "q.pql", 3, 7)
        assert str(diag) == "q.pql:3:7: error PL101: boom"

    def test_str_without_position(self):
        diag = Diagnostic("PL203", ERROR, "boom", "mod.py")
        assert str(diag) == "mod.py: error PL203: boom"


class TestReport:
    def make(self):
        report = LintReport(targets_checked=2)
        report.extend([
            Diagnostic("PL101", ERROR, "bad attr", "<query>", 1, 4),
            Diagnostic("PL107", WARNING, "closure", "<query>", 2, 0),
        ])
        return report

    def test_partition_and_ok(self):
        report = self.make()
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert not report.ok
        assert LintReport().ok

    def test_by_code(self):
        report = self.make()
        assert [d.message for d in report.diagnostics
                if d.code == "PL107"] == ["closure"]

    def test_text_reporter(self):
        text = render_text(self.make())
        assert "<query>:1:4: error PL101: bad attr" in text
        assert "2 target(s) checked" in text
