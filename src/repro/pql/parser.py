"""PQL recursive-descent parser.

Grammar (EBNF-ish)::

    query       = 'select' ['distinct'] select_item {',' select_item}
                  'from' binding {[','] binding}
                  ['where' expr]
    select_item = expr ['as' IDENT]
    binding     = path 'as' IDENT
    path        = IDENT {step}
    step        = '.' edge [quant]
    edge        = ['^'] IDENT
                | '(' ['^'] IDENT {'|' ['^'] IDENT} ')'
    quant       = '*' | '+' | '?' | '{' NUM [',' [NUM]] '}'

    expr        = or_expr
    or_expr     = and_expr {'or' and_expr}
    and_expr    = not_expr {'and' not_expr}
    not_expr    = 'not' not_expr | comparison
    comparison  = additive [cmp_op additive | 'in' '(' query ')']
    additive    = multiplicative {('+' | '-') multiplicative}
    multiplicative = unary {('*' | '/' | '%') unary}
    unary       = '-' unary | primary
    primary     = STRING | NUMBER | 'true' | 'false'
                | IDENT '(' [expr {',' expr}] ')'       (function call)
                | path                                    (PathValue)
                | '(' query ')'                           (subquery)
                | '(' expr ')'
                | 'exists' '(' query ')'

In expression position the quantifiers ``*`` and ``+`` collide with the
arithmetic operators; they are treated as quantifiers only when the next
token cannot begin an operand (Lorel had the same wart).
"""

from __future__ import annotations

from repro.core.errors import PQLSyntaxError
from repro.pql import ast
from repro.pql.lexer import Token, number_value, tokenize

#: Comparison operator token texts.
_CMP_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})


def parse(text: str) -> ast.Query:
    """Parse a PQL query string into an AST."""
    return _Parser(tokenize(text)).parse_query(top_level=True)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers ----------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, ahead: int = 1) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str) -> PQLSyntaxError:
        token = self._cur
        return PQLSyntaxError(f"{message}, found {token}",
                              token.line, token.column)

    def _expect_op(self, op: str) -> Token:
        if not self._cur.is_op(op):
            raise self._error(f"expected {op!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._cur.is_keyword(word):
            raise self._error(f"expected {word.upper()!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._cur.kind != "ident":
            raise self._error("expected an identifier")
        return self._advance().text

    # -- query ------------------------------------------------------------------------

    def parse_query(self, top_level: bool = False) -> ast.Query:
        start = self._cur
        self._expect_keyword("select")
        distinct = True
        if self._cur.is_keyword("distinct"):
            self._advance()
        select = [self._select_item()]
        while self._cur.is_op(","):
            self._advance()
            select.append(self._select_item())
        self._expect_keyword("from")
        bindings = [self._binding()]
        while True:
            if self._cur.is_op(","):
                self._advance()
            if self._cur.kind != "ident":
                break
            bindings.append(self._binding())
        where = None
        if self._cur.is_keyword("where"):
            self._advance()
            where = self.parse_expr()
        order = None
        if self._cur.is_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            key = self.parse_expr()
            descending = False
            if self._cur.is_keyword("desc"):
                self._advance()
                descending = True
            elif self._cur.is_keyword("asc"):
                self._advance()
            order = ast.OrderBy(key, descending)
        limit = None
        if self._cur.is_keyword("limit"):
            self._advance()
            limit = self._number_int()
            if limit < 0:
                raise self._error("LIMIT must be non-negative")
        if top_level and self._cur.kind != "eof":
            raise self._error("unexpected trailing input")
        return ast.Query(tuple(select), tuple(bindings), where, distinct,
                         order, limit, line=start.line, column=start.column)

    def _select_item(self) -> ast.SelectItem:
        expr = self.parse_expr()
        alias = None
        if self._cur.is_keyword("as"):
            self._advance()
            alias = self._expect_ident()
        return ast.SelectItem(expr, alias)

    def _binding(self) -> ast.Binding:
        start = self._cur
        path = self._path(in_expression=False)
        self._expect_keyword("as")
        name = self._expect_ident()
        return ast.Binding(path, name, line=start.line, column=start.column)

    # -- paths ------------------------------------------------------------------------------

    def _path(self, in_expression: bool) -> ast.Path:
        start = self._cur
        root = self._expect_ident()
        steps: list[ast.Step] = []
        while self._cur.is_op("."):
            self._advance()
            edge = self._edge_expr()
            quant = self._quantifier(in_expression)
            steps.append(ast.Step(edge, quant))
        return ast.Path(root, tuple(steps),
                        line=start.line, column=start.column)

    def _edge_expr(self) -> ast.EdgeExpr:
        if self._cur.is_op("("):
            self._advance()
            options = [self._edge_name()]
            while self._cur.is_op("|"):
                self._advance()
                options.append(self._edge_name())
            self._expect_op(")")
            return ast.EdgeAlt(tuple(options))
        return self._edge_name()

    def _edge_name(self) -> ast.EdgeName:
        start = self._cur
        reverse = False
        if self._cur.is_op("^"):
            self._advance()
            reverse = True
        return ast.EdgeName(self._expect_ident(), reverse,
                            line=start.line, column=start.column)

    def _quantifier(self, in_expression: bool) -> ast.Quantifier:
        token = self._cur
        if token.is_op("*") or token.is_op("+"):
            if in_expression and self._operand_follows():
                return ast.Quantifier()        # it is arithmetic, not a quant
            self._advance()
            return (ast.Quantifier.star() if token.text == "*"
                    else ast.Quantifier.plus())
        if token.is_op("?"):
            self._advance()
            return ast.Quantifier.opt()
        if token.is_op("{"):
            self._advance()
            minimum = self._number_int()
            maximum: int | None = minimum
            if self._cur.is_op(","):
                self._advance()
                maximum = None
                if self._cur.kind == "number":
                    maximum = self._number_int()
            self._expect_op("}")
            if maximum is not None and maximum < minimum:
                raise self._error("quantifier maximum below minimum")
            return ast.Quantifier(minimum, maximum)
        return ast.Quantifier()

    def _operand_follows(self) -> bool:
        """After a '*' or '+' in expression position: is the *next* token
        the start of an operand (making the symbol arithmetic)?"""
        nxt = self._peek()
        if nxt.kind in ("ident", "number", "string"):
            return True
        if nxt.kind == "keyword" and nxt.text in ("true", "false", "not",
                                                  "exists"):
            return True
        return nxt.is_op("(") or nxt.is_op("-")

    def _number_int(self) -> int:
        if self._cur.kind != "number":
            raise self._error("expected a number")
        text = self._advance().text
        if "." in text:
            raise self._error("expected an integer")
        return int(text)

    # -- expressions -----------------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        operands = [self._and_expr()]
        while self._cur.is_keyword("or"):
            self._advance()
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp("or", tuple(operands))

    def _and_expr(self) -> ast.Expr:
        operands = [self._not_expr()]
        while self._cur.is_keyword("and"):
            self._advance()
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.BoolOp("and", tuple(operands))

    def _not_expr(self) -> ast.Expr:
        if self._cur.is_keyword("not"):
            self._advance()
            return ast.Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        if self._cur.kind == "op" and self._cur.text in _CMP_OPS:
            token = self._advance()
            right = self._additive()
            return ast.Compare(token.text, left, right,
                               line=token.line, column=token.column)
        if self._cur.is_keyword("like"):
            token = self._advance()
            return ast.Compare("like", left, self._additive(),
                               line=token.line, column=token.column)
        if self._cur.is_keyword("not") and self._peek().is_keyword("like"):
            self._advance()
            token = self._advance()
            return ast.Not(ast.Compare("like", left, self._additive(),
                                       line=token.line, column=token.column))
        if self._cur.is_keyword("in"):
            self._advance()
            self._expect_op("(")
            query = self.parse_query()
            self._expect_op(")")
            return ast.InQuery(left, query)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._cur.kind == "op" and self._cur.text in ("+", "-"):
            op = self._advance().text
            left = ast.Arith(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._cur.kind == "op" and self._cur.text in ("*", "/", "%"):
            op = self._advance().text
            left = ast.Arith(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        if self._cur.is_op("-"):
            self._advance()
            return ast.Neg(self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self._cur
        if token.kind == "string":
            self._advance()
            return ast.Literal(token.text)
        if token.kind == "number":
            self._advance()
            return ast.Literal(number_value(token.text))
        if token.is_keyword("true"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("exists"):
            self._advance()
            self._expect_op("(")
            query = self.parse_query()
            self._expect_op(")")
            return ast.ExistsQuery(query)
        if token.is_op("("):
            if self._peek().is_keyword("select"):
                self._advance()
                query = self.parse_query()
                self._expect_op(")")
                # A bare parenthesised subquery in expression position is
                # only meaningful inside IN/EXISTS, but allow it: treated
                # as its value set by the evaluator.
                return ast.ExistsQuery(query)
            self._advance()
            inner = self.parse_expr()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            if self._peek().is_op("("):
                name = self._advance().text
                self._advance()                 # '('
                args: list[ast.Expr] = []
                if not self._cur.is_op(")"):
                    args.append(self.parse_expr())
                    while self._cur.is_op(","):
                        self._advance()
                        args.append(self.parse_expr())
                self._expect_op(")")
                return ast.Call(name.lower(), tuple(args),
                                line=token.line, column=token.column)
            return ast.PathValue(self._path(in_expression=True))
        raise self._error("expected an expression")
