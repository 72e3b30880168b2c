"""Plan-cache soundness: a shape compiled for one set of literals and
run with another answers exactly as a fresh compile would.

The engine keys compiled plans by query *shape* (literals lifted out by
``repro.pql.lexer.parameterize``) and runs the cached closures with the
caller's values in the parameter slots.  These properties generate one
query template and two independent literal assignments -- strings with
quotes, backslashes, ``#``, ``?``, runs of spaces and digits; ints,
floats and ``-n``; beside ``{m,n}`` quantifiers and ``limit N``, which
must stay structural -- and require the second execution to be
indistinguishable from a cold one, before and after the graph's
vocabulary epoch moves; and sequences of shapes, repeated with new
literals through an evicting cache on a growing live graph.
"""

import dataclasses
import re
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.errors import ReproError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord
from repro.pql import ast
from repro.pql.engine import QueryEngine
from repro.pql.evaluator import slot_literals
from repro.pql.lexer import number_value, parameterize, tokenize
from repro.pql.oem import OEMGraph
from repro.pql.parser import parse
from tests.conftest import as_refs, reference_refs

# -- generators ---------------------------------------------------------------

#: Fragments a hostile literal is assembled from.
_CHUNKS = ['"', "'", "\\", "#", "?", " ", "   ", "a", "/pass/", "7", "42",
           "\n", "\t", "{1,2}", "limit", "=", "?s", "?n"]
strings = st.one_of(
    st.sampled_from(["/pass/a", "/pass/b", "a  b", "a b"]),
    st.lists(st.sampled_from(_CHUNKS), max_size=4).map("".join))
numbers = st.one_of(
    st.integers(0, 99),
    st.integers(0, 400).map(lambda quarters: quarters / 4))

#: ``§s`` / ``§n`` mark a string / number literal; every other number
#: in a template is structure (counted beside it).
TEMPLATES = [
    ('select N from Provenance.node as N where N.name = §s', 0),
    ('select A from Provenance.node as N, N.input{1,2} as A '
     'where N.md5 = §s limit 40', 3),
    ('select N from Provenance.node as N '
     'where N.time >= §n and N.time < §n', 0),
    ('select N.name from Provenance.node as N '
     'where N.name = §s or N.time = §n limit 41', 1),
    ('select N from Provenance.node as N, N.input{0,2} as A '
     'where A.time + §n > §n and not (N.name like §s)', 2),
    ('select N from Provenance.node as N where exists '
     '(select A from N.input{1,} as A where A.name = §s limit 40) '
     'and N.time != §n', 2),
    ('select count(N) from Provenance.node as N where N.time > §n', 0),
    ('SELECT N FROM Provenance.node AS N WHERE §s == N.name AND true', 0),
    ('select N, N.time from Provenance.node as N '
     'where N.time * §n <= §n order by N.time desc limit 40', 1),
    ('select N from Provenance.node as N # where N.name = "x"\n'
     'where N.md5 = §s and N.name != §s', 0),
    # Rejected by the pre-pass (PL108) at a column the string moves.
    ('select N from Provenance.node as N '
     'where N.name = §s and frob(N) > §n', 0),
]


def quote(value: str, mark: str) -> str:
    body = value.replace("\\", "\\\\").replace(mark, "\\" + mark)
    return mark + body.replace("\n", "\\n").replace("\t", "\\t") + mark


@st.composite
def renderings(draw, template: str):
    """``(text, literals)``: the template with drawn literals written
    into its holes, and their values in order."""
    literals = []
    parts = re.split(r"(§[sn])", template)
    for index, part in enumerate(parts):
        if part == "§s":
            value = draw(strings)
            parts[index] = quote(value, draw(st.sampled_from("\"'")))
            literals.append(value)
        elif part == "§n":
            value = draw(numbers)
            parts[index] = repr(value)
            literals.append(value)
    return "".join(parts), literals


@st.composite
def sibling_queries(draw):
    """One template rendered twice, independently.  A sign is unary
    minus over the literal -- structure -- so the two share it."""
    template, structural = draw(st.sampled_from(TEMPLATES))
    template = re.sub("§n", lambda _: draw(st.sampled_from(["§n", "-§n"])),
                      template)
    return (draw(renderings(template)), draw(renderings(template)),
            structural)


refs = st.builds(ObjectRef, pnode=st.integers(1, 5),
                 version=st.integers(0, 2))
records = st.one_of(
    st.builds(ProvenanceRecord, subject=refs,
              attr=st.sampled_from([Attr.NAME, Attr.MD5]), value=strings),
    st.builds(ProvenanceRecord, subject=refs, attr=st.just(Attr.TIME),
              value=numbers),
    st.builds(ProvenanceRecord, subject=refs,
              attr=st.sampled_from([Attr.INPUT, Attr.PREV_VERSION]),
              value=refs))
streams = st.lists(records, min_size=5, max_size=40)


def outcome(engine: QueryEngine, text: str):
    """Sorted rows (nodes as refs), or the error the query ends in."""
    try:
        rows = engine.execute(text)
    except ReproError as error:
        return type(error).__name__, str(error)
    return sorted(repr(as_refs(row)) for row in rows)


def assert_reference_agrees(engine: QueryEngine, text: str, expected):
    """The reference evaluator, on a fresh parse of ``text``, answers
    as ``expected``.  A query that ended in an error (the pre-pass
    rejected it before any evaluator ran) has nothing to compare."""
    if isinstance(expected, list):
        assert sorted(map(repr, reference_refs(engine, text))) == expected


def literals_of(node) -> list:
    """String and number literals of an AST, in source order."""
    if isinstance(node, ast.Literal):
        return [] if isinstance(node.value, bool) else [node.value]
    if isinstance(node, tuple):
        return [value for item in node for value in literals_of(item)]
    if not dataclasses.is_dataclass(node):
        return []
    return [value for field in dataclasses.fields(node)
            for value in literals_of(getattr(node, field.name))]


# -- properties ---------------------------------------------------------------

def test_every_template_but_the_last_runs():
    engine = QueryEngine(OEMGraph.build([
        ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "x"),
        ProvenanceRecord(ObjectRef(1, 0), Attr.MD5, "x"),
        ProvenanceRecord(ObjectRef(1, 0), Attr.TIME, 1),
        ProvenanceRecord(ObjectRef(1, 0), Attr.INPUT, ObjectRef(2, 0))]))
    *runnable, rejected = (
        template.replace("§s", '"x"').replace("§n", "1")
        for template, _ in TEMPLATES)
    for text in runnable:
        assert isinstance(engine.execute(text), list), text
    assert outcome(engine, rejected)[0] == "PQLNameError"


@given(streams, st.integers(0, 40), sibling_queries())
@settings(max_examples=300, deadline=None)
def test_rebound_plan_equals_fresh_compile(stream, cut, siblings):
    """B after A on one engine == B on a fresh engine == the reference,
    before and after an ``apply_batch`` that bumps ``vocab_epoch``."""
    (first, _), (second, _), _ = siblings
    cut = min(cut, len(stream))
    engine = QueryEngine(OEMGraph.build(stream[:cut]))
    outcome(engine, first)
    compiles = len(engine._plans)
    expected = outcome(QueryEngine(OEMGraph.build(stream[:cut])), second)
    assert outcome(engine, second) == expected
    assert_reference_agrees(engine, second, expected)
    assert len(engine._plans) == compiles           # one shape

    grown = stream[cut:] + [
        ProvenanceRecord(ObjectRef(1, 0), "BRAND_NEW_LABEL", 1)]
    epoch = engine.graph.vocab_epoch
    engine.graph.apply_batch(grown)
    assert engine.graph.vocab_epoch != epoch
    expected = outcome(QueryEngine(OEMGraph.build(stream[:cut] + grown)),
                       first)
    assert outcome(engine, first) == expected
    assert_reference_agrees(engine, first, expected)
    assert_reference_agrees(engine, second, outcome(engine, second))


@given(sibling_queries())
@settings(max_examples=300, deadline=None)
def test_parameters_are_the_lexers_literal_tokens(siblings):
    """What ``parameterize`` lifts is what ``tokenize`` calls a string
    or number, minus the structural numbers, in order and by value --
    and what the parser turns into ``ast.Literal`` nodes."""
    (text, literals), (other, _), structural = siblings
    shape, params = parameterize(text)
    assert list(params) == literals
    assert list(map(type, params)) == list(map(type, literals))
    tokens = [token.text if token.kind == "string"
              else number_value(token.text)
              for token in tokenize(text)
              if token.kind in ("string", "number")]
    assert len(tokens) == len(params) + structural
    if not structural:
        assert tokens == list(params)
    assert literals_of(parse(text)) == list(params)
    assert parameterize(other)[0] == shape
    words = shape.split()
    assert words.count("?s") + words.count("?n") == len(params)


@given(sibling_queries())
@settings(max_examples=200, deadline=None)
def test_one_plan_keeps_its_ast_and_takes_each_callers_params(
        siblings):
    """The second text of a shape reuses the first one's plan: its
    parameters are the second text's literals in the slots the compiler
    reads, and the plan's AST stays the first text's parse."""
    (first, _), (second, _), _ = siblings
    engine = QueryEngine.from_records([])
    plan = engine.plan(first)
    assert plan.query == parse(first)
    assert engine.plan(second) is plan
    assert plan.params == parameterize(second)[1]
    assert [literal.value for literal in slot_literals(parse(second))] \
        == list(plan.params)
    assert plan.query == parse(first)               # nothing mutated
    assert len(engine._plans) == 1


# -- slots across executions -------------------------------------------------

#: Literals in the select list, on both sides of WHERE, inside IN and
#: EXISTS subqueries and in ORDER BY; ``limit`` and ``{m,n}`` stay
#: structure.  ``§L`` is a ``limit`` that varies the shape.
SEQUENCE_TEMPLATES = [
    'select N, §n from Provenance.node as N where N.name = §s §L',
    'select N.time + §n from Provenance.node as N where §n < N.time §L',
    'select N from Provenance.node as N where N.name in '
    '(select A.name from Provenance.node as A where A.time >= §n) '
    'and N.md5 != §s §L',
    'select N from Provenance.node as N where exists (select A from '
    'N.input{1,} as A where A.name = §s limit 40) or N.time = §n §L',
    'select N.name, §s from Provenance.node as N '
    'order by N.time * §n desc §L',
    'select N from Provenance.node as N, N.input* as A '
    'where A.md5 = §s and N.time >= §n and N.time < §n §L',
    'select A from Provenance.node as N, N.^input{1,3} as A '
    'where N.md5 = §s §L',
    'select count(N) from Provenance.node as N where N.time > §n §L',
]

steps = st.lists(st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(SEQUENCE_TEMPLATES) - 1),
              st.integers(0, 2), st.data()),
    st.tuples(st.just("apply"), st.lists(records, min_size=1, max_size=8))),
    min_size=1, max_size=25)


def rows_or_error(engine: QueryEngine, text: str):
    """Rows in the order they came (nodes as refs), or the error."""
    try:
        return [as_refs(row) for row in engine.execute(text)]
    except ReproError as error:
        return type(error).__name__, str(error)


@given(streams, steps)
@settings(max_examples=150, deadline=None)
def test_slots_across_executions(stream, sequence):
    """One live engine, a plan cache of four shapes, and a sequence of
    shapes -- each run twice with independent literals -- between record
    groups that grow the graph's vocabulary: every answer equals, in
    order, that of a fresh engine compiling the text over the same
    graph, and, as a set, the catalog-less reference's."""
    from repro.pql import engine as engine_module
    from repro.storage.database import ProvenanceDatabase
    database = ProvenanceDatabase("props")
    database.insert_many(stream)
    engine = QueryEngine.live([database])
    epochs = {engine.graph.vocab_epoch}
    with mock.patch.object(engine_module, "PLAN_CACHE_SHAPES", 4):
        for step in sequence:
            if step[0] == "apply":
                database.insert_many(step[1] + [ProvenanceRecord(
                    ObjectRef(1, 0), f"LABEL_{len(epochs)}", 1)])
                epochs.add(engine.graph.vocab_epoch)
                continue
            _, index, limit, data = step
            template = SEQUENCE_TEMPLATES[index].replace(
                "§L", f"limit {40 + limit}")
            for _ in range(2):
                text, _ = data.draw(renderings(template))
                got = rows_or_error(engine, text)
                assert got == rows_or_error(QueryEngine(engine.graph), text)
                if isinstance(got, list):
                    assert sorted(map(repr, got)) == sorted(
                        map(repr, reference_refs(engine, text)))
            assert len(engine._plans) <= 4
    assert len(epochs) == 1 + sum(step[0] == "apply" for step in sequence)
