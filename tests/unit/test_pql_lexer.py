"""Unit tests for the PQL lexer."""

import pytest

from repro.core.errors import PQLSyntaxError
from repro.pql.lexer import parameterize, tokenize


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert kinds("SELECT Select select") == [("keyword", "select")] * 3

    def test_identifiers_case_sensitive(self):
        assert kinds("Atlas atlas") == [("ident", "Atlas"), ("ident", "atlas")]

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].kind == "eof"
        assert tokenize("x")[-1].kind == "eof"

    def test_string_double_and_single_quotes(self):
        assert kinds('"abc"') == [("string", "abc")]
        assert kinds("'abc'") == [("string", "abc")]

    def test_string_escapes(self):
        assert kinds(r'"a\"b\n"') == [("string", 'a"b\n')]

    def test_unterminated_string_raises(self):
        with pytest.raises(PQLSyntaxError):
            tokenize('"oops')

    def test_numbers(self):
        assert kinds("42 3.5") == [("number", "42"), ("number", "3.5")]

    def test_number_dot_ident_not_float(self):
        # 'x.3' is invalid anyway; '3.input' must lex as number-dot-ident.
        assert kinds("3.input")[0] == ("number", "3")

    def test_operators(self):
        assert kinds("<= >= != = < >") == [
            ("op", "<="), ("op", ">="), ("op", "!="),
            ("op", "="), ("op", "<"), ("op", ">"),
        ]

    def test_double_equals_normalized(self):
        assert kinds("a == b")[1] == ("op", "=")

    def test_path_symbols(self):
        assert kinds("A.input*") == [
            ("ident", "A"), ("op", "."), ("ident", "input"), ("op", "*"),
        ]

    def test_caret(self):
        assert ("op", "^") in kinds("A.^input")

    def test_comments_skipped(self):
        assert kinds("a # comment\n b") == [("ident", "a"), ("ident", "b")]

    def test_unknown_char_raises_with_position(self):
        with pytest.raises(PQLSyntaxError) as info:
            tokenize("a\n  @")
        assert info.value.line == 2

    def test_positions_tracked(self):
        tokens = tokenize("select\n  Foo")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 2

    def test_positions_survive_comments_tabs_and_escapes(self):
        tokens = tokenize('a\t# x "y\n\r "p\\\nq" b')
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 0), ("p\nq", 2, 2), ("b", 2, 9), ("", 2, 10)]
        # End of query is the end of the text, trailing comment included.
        assert tokenize("a # gone")[-1].column == 8

    def test_unterminated_string_points_at_its_quote(self):
        for text in ('a = "oops', "a = 'oops\n'", 'a = "x\\'):
            with pytest.raises(PQLSyntaxError,
                               match="unterminated string") as info:
                tokenize(text)
            assert (info.value.line, info.value.column) == (1, 4)


class TestParameterize:
    def test_literals_lifted_in_token_order(self):
        shape, params = parameterize(
            'select F from P.file as F where F.name = "a\\"b" '
            "and F.time >= 3 and F.size < 4.5 or F.name like 'x%'")
        assert shape == ("select F from P . file as F where F . name = ?s "
                         "and F . time >= ?n and F . size < ?n "
                         "or F . name like ?s")
        assert params == ('a"b', 3, 4.5, "x%")
        assert [type(p) for p in params] == [str, int, float, str]

    def test_quantifier_bounds_and_limit_stay(self):
        shape, params = parameterize(
            "select A from F.input{1,3} as A, A.input{2} as B, "
            "B.input{4,} as C where f(1, 2) = 3 limit 5")
        assert params == (1, 2, 3)
        assert "{ 1 , 3 }" in shape and "{ 2 }" in shape
        assert "{ 4 , }" in shape and shape.endswith("limit 5")
        assert "f ( ?n , ?n ) = ?n" in shape

    def test_keywords_fold_identifiers_do_not(self):
        assert (parameterize("SELECT x FROM y AS x WHERE TRUE")[0]
                == "select x from y as x where true")
        assert (parameterize("select X from y as X")[0]
                != parameterize("select x from y as x")[0])

    def test_placeholder_lookalikes_are_not_placeholders(self):
        # '?' is an operator and 's' an identifier: two tokens.
        assert parameterize("a.b? s")[0] == "a . b ? s"
        assert parameterize('a.b = "?s"') == ("a . b = ?s", ("?s",))

    def test_bad_input_raises_the_lexers_error(self):
        for text in ('a = "oops', "a\n  @"):
            with pytest.raises(PQLSyntaxError) as expected:
                tokenize(text)
            with pytest.raises(PQLSyntaxError) as got:
                parameterize(text)
            assert str(got.value) == str(expected.value)
