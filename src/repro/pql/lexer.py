"""PQL lexer.

One compiled master pattern (:data:`_TOKEN`) defines every token, and
two readers share it: :func:`tokenize` produces the :class:`Token`
stream the parser consumes, with line/column positions so parse errors
point at the offending character, and :func:`parameterize` reduces a
query to its *shape* -- the same token stream with each string and
number literal in expression position lifted out into a parameter
tuple -- which is the key of the engine's plan cache.  Keywords are
case-insensitive (``SELECT`` / ``select``); identifiers are
case-sensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.errors import PQLSyntaxError

KEYWORDS = frozenset({
    "select", "from", "where", "as", "and", "or", "not", "in",
    "exists", "true", "false", "distinct", "like", "limit",
    "order", "by", "asc", "desc",
})

#: Blanks and ``#`` comments, then one token.  Some alternative always
#: matches (``bad`` takes any other character, ``\Z`` the end), so a
#: scan covers the text without gaps.  The alternatives start on
#: disjoint characters; they are ordered by how often queries use them,
#: and :func:`parameterize` unpacks the groups in this order.
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:(?P<word>[^\W\d]\w*)
      |(?P<op>[<>!=]=|[.*+?(){}|,<>=^\-/%\[\]])
      |(?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*"|'[^'\\\n]*(?:\\.[^'\\\n]*)*')
      |(?P<number>\d+(?:\.\d+)?)
      |(?P<bad>.)
      |\Z)
""", re.VERBOSE | re.DOTALL)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str          # 'ident', 'keyword', 'string', 'number', 'op', 'eof'
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op

    def __str__(self) -> str:
        return "end of query" if self.kind == "eof" else repr(self.text)


def _unquote(raw: str) -> str:
    """The value of a quoted string token."""
    body = raw[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)


def number_value(text: str):
    """The value of a number token."""
    return float(text) if "." in text else int(text)


def tokenize(text: str) -> list[Token]:
    """Lex a whole query; always ends with one 'eof' token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start(kind) if kind else match.end()
        newlines = text.count("\n", match.start(), start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", match.start(), start) + 1
        column = start - line_start
        if kind is None:
            tokens.append(Token("eof", "", line, column))
            break
        value = match[kind]
        if kind == "bad":
            raise PQLSyntaxError(
                "unterminated string literal" if value in "\"'"
                else f"unexpected character {value!r}", line, column)
        if kind == "string":
            value = _unquote(value)
        elif kind == "word":
            lowered = value.lower()
            kind = "ident"
            if lowered in KEYWORDS:
                kind, value = "keyword", lowered
        elif value == "==":
            value = "="
        tokens.append(Token(kind, value, line, column))
    return tokens


def parameterize(text: str) -> tuple[str, tuple]:
    """``(shape, params)`` of a query: its canonical token stream with
    every string and number literal in expression position replaced by
    a placeholder typed by category (``?s`` / ``?n``, which no token
    spells), and those literals' values in token order.

    Quantifier bounds (``{m,n}``) and ``limit N`` are structure, not
    values, and stay in the shape, as do ``true``/``false``.  Two texts
    share a shape exactly when :func:`tokenize` yields the same kinds
    everywhere and the same texts everywhere but at lifted literals.
    """
    shape: list[str] = []
    params: list = []
    for word, op, string, number, bad in _TOKEN.findall(text):
        if word:
            lowered = word.lower()
            shape.append(lowered if lowered in KEYWORDS else word)
        elif op:
            shape.append("=" if op == "==" else op)
        elif string:
            shape.append("?s")
            params.append(_unquote(string))
        elif number:
            before = shape[-1] if shape else ""
            if (before == "{" or before == "limit"
                    or before == "," and shape[-3:-2] == ["{"]):
                shape.append(number)
            else:
                shape.append("?n")
                params.append(number_value(number))
        elif bad:
            tokenize(text)              # raises the positioned error
    return " ".join(shape), tuple(params)
