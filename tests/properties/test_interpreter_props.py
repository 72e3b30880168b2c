"""Differential fuzzing: the provenance-aware interpreter vs plain eval.

For any generated arithmetic/boolean expression, the interpreter must
produce exactly the value Python produces -- provenance tracking may
never change semantics.
"""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.apps.papython.interpreter import ProvenanceInterpreter
from repro.system import System

NAMES = ("a", "b", "c")


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(NAMES))
        return str(draw(st.integers(1, 9)))
    left = draw(expressions(depth=depth - 1))
    right = draw(expressions(depth=depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "//", "%", "==", "<",
                               ">", "&", "|", "^"]))
    return f"({left} {op} {right})"


@given(expressions(),
       st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=150, deadline=None)
def test_interpreter_matches_python(source, a, b, c):
    plain_env = {"a": a, "b": b, "c": c}
    try:
        expected = eval(source, {"__builtins__": {}}, dict(plain_env))
    except ZeroDivisionError:
        assume(False)       # both sides would raise; not interesting

    system = System.boot()
    outcome = {}

    def program(sc):
        interp = ProvenanceInterpreter(sc)
        env = {name: interp.lift(value, name)
               for name, value in plain_env.items()}
        outcome["value"] = interp.eval(source, env).value
        return 0

    system.register_program("/pass/bin/app", program)
    system.run("/pass/bin/app")
    assert outcome["value"] == expected


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_interpreter_ancestry_covers_used_names(source):
    """Every variable appearing in the expression is an ancestor of the
    result; unmentioned variables never are."""
    try:
        eval(source, {"__builtins__": {}},
             {name: index + 1 for index, name in enumerate(NAMES)})
    except ZeroDivisionError:
        assume(False)
    system = System.boot()

    def program(sc):
        interp = ProvenanceInterpreter(sc)
        env = {name: interp.lift(index + 1, f"var-{name}")
               for index, name in enumerate(NAMES)}
        result = interp.eval(source, env)
        interp.write_result("/pass/result", result)
        return 0

    system.register_program("/pass/bin/app", program)
    system.run("/pass/bin/app")
    system.sync()
    db = system.database("pass")
    ref = system.find_by_name("/pass/result")[0]
    from repro.core.records import Attr
    from repro.query.helpers import ancestry_refs
    labels = set()
    for anc in ancestry_refs(system.query_engine().graph, ref):
        labels.update(str(v) for v in db.attribute_values(anc, Attr.NAME))
    for name in NAMES:
        mentioned = name in source
        assert (f"var-{name}" in labels) == mentioned, (
            f"{name}: mentioned={mentioned}, labels={sorted(labels)}")
