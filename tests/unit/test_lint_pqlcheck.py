"""Per-rule tests for the PQL static analyzer (PL1xx).

Every rule gets at least one query that triggers it and one that stays
clean of it.
"""

import pytest

from repro.lint.diagnostics import ERROR, WARNING
from repro.lint.pqlcheck import Vocabulary, check_query_text

BASE = "select F from Provenance.file as F"


def codes(text, vocabulary=None):
    return [d.code for d in check_query_text(text, vocabulary)]


def diag(text, code):
    found = [d for d in check_query_text(text) if d.code == code]
    assert found, f"expected {code} for {text!r}"
    return found[0]


#: (code, triggering query, clean query)
RULE_CASES = [
    ("PL100",
     "select from where",
     BASE),
    ("PL101",
     'select F from Provenance.file as F where F.nmae = "x"',
     'select F from Provenance.file as F where F.name = "x"'),
    ("PL102",
     "select A from Provenance.file as F F.name as A",
     "select A from Provenance.file as F F.input as A"),
    ("PL103",
     "select B from Nope.input as B",
     "select B from Provenance.file as F F.input as B"),
    ("PL104",
     "select F from Provenance.file as F, Provenance.process as F",
     "select F, G from Provenance.file as F, Provenance.process as G"),
    ("PL105",
     "select X from Provenance.martian as X",
     "select X from Provenance.process as X"),
    ("PL106",
     "select X from Provenance.file* as X",
     BASE),
    ("PL107",
     "select A from Provenance.file as F F.input* as A",
     "select A from Provenance.file as F F.input{1,6} as A"),
    ("PL108",
     "select frob(F) from Provenance.file as F",
     "select count(F) from Provenance.file as F"),
    ("PL109",
     "select count(F, F) from Provenance.file as F",
     "select count(F) from Provenance.file as F"),
    ("PL110",
     "select F from Provenance.file as F where F.name = 5",
     'select F from Provenance.file as F where F.name = "x"'),
    ("PL111",
     "select F from Provenance.file as F where 1 = 2",
     "select F from Provenance.file as F where F.pid = 2"),
    ("PL112",
     "select F from Provenance.file as F limit 0",
     "select F from Provenance.file as F limit 1"),
    ("PL113",
     "select F.name from Provenance.file as F, Provenance.file as G",
     "select F.name, G.name from Provenance.file as F, "
     "Provenance.file as G"),
]


class TestEveryRule:
    @pytest.mark.parametrize("code,bad,clean", RULE_CASES,
                             ids=[case[0] for case in RULE_CASES])
    def test_rule_triggers_and_clears(self, code, bad, clean):
        assert code in codes(bad)
        assert code not in codes(clean)

    def test_clean_paper_query_is_quiet_modulo_closure_warning(self):
        text = ('select A from Provenance.file as Atlas '
                'Atlas.input{1,8} as A '
                'where Atlas.name = "/pass/out/atlas-x.gif"')
        assert check_query_text(text) == []


class TestPositions:
    def test_unknown_attribute_is_positioned(self):
        found = diag('select F from Provenance.file as F\n'
                     'where F.nmae = "x"', "PL101")
        assert (found.line, found.column) == (2, 8)
        assert found.severity == ERROR

    def test_unbound_variable_is_positioned(self):
        found = diag("select B from Nope.input as B", "PL103")
        assert (found.line, found.column) == (1, 14)

    def test_closure_warning_is_positioned(self):
        found = diag("select A from Provenance.file as F\n"
                     "     F.input* as A", "PL107")
        assert found.severity == WARNING
        assert (found.line, found.column) == (2, 7)

    def test_syntax_error_becomes_pl100(self):
        found = diag("select )", "PL100")
        assert found.line == 1


class TestScopes:
    def test_subquery_sees_outer_bindings(self):
        text = ("select F from Provenance.file as F where F in "
                "(select G.input from Provenance.file as G "
                "where G.name = F.name)")
        assert "PL103" not in codes(text)

    def test_subquery_shadowing_warns(self):
        text = ("select F from Provenance.file as F where exists "
                "(select F from Provenance.process as F)")
        assert "PL104" in codes(text)

    def test_later_binding_roots_at_earlier(self):
        text = ("select A from Provenance.file as F F.input as A "
                "where A.name like \"%\"")
        assert codes(text) == []

    def test_edge_alternation_checked_per_option(self):
        text = ("select A from Provenance.file as F "
                "F.(input|nmae) as A")
        assert "PL101" in codes(text)

    def test_reversed_edges_are_fine(self):
        text = ("select D from Provenance.file as F F.^input{1,4} as D")
        assert codes(text) == []


class TestVocabulary:
    def test_default_vocabulary_knows_core_labels(self):
        vocab = Vocabulary.default()
        assert "input" in vocab.edges
        assert "name" in vocab.atoms
        assert "file" in vocab.members
        assert "version" in vocab.atoms          # identity pseudo-atom

    def test_framing_is_not_queryable(self):
        vocab = Vocabulary.default()
        assert "begintxn" not in vocab.atoms
        assert "endtxn" not in vocab.atoms
        assert "PL101" in codes(
            "select F.begintxn from Provenance.file as F")

    def test_custom_vocabulary_widens(self):
        vocab = Vocabulary.default()
        wider = Vocabulary(vocab.edges, vocab.atoms | {"custom"},
                           vocab.members)
        text = "select F.custom from Provenance.file as F"
        assert "PL101" in codes(text)
        assert "PL101" not in codes(text, wider)
