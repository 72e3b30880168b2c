"""Property: a query the static analyzer accepts never dies with a
name error in the evaluator.

The generator deliberately produces a mix of good and bad queries
(unbound roots, misspelled attributes, unknown functions); whenever the
lint pre-pass reports no blocking diagnostic, evaluation must not raise
``PQLNameError``.
"""

import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core.errors import PQLNameError
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType, ProvenanceRecord
from repro.lint.diagnostics import ERROR
from repro.lint.pqlcheck import check_query
from repro.pql.engine import QueryEngine
from repro.pql.parser import parse


def R(pnode, version, attr, value):
    return ProvenanceRecord(ObjectRef(pnode, version), attr, value)


def build_engine():
    return QueryEngine.from_records([
        R(1, 0, Attr.TYPE, ObjType.FILE),
        R(1, 0, Attr.NAME, "/data/a"),
        R(2, 0, Attr.TYPE, ObjType.FILE),
        R(2, 0, Attr.NAME, "/data/b"),
        R(3, 0, Attr.TYPE, ObjType.PROCESS),
        R(3, 0, Attr.NAME, "prog"),
        R(3, 0, Attr.PID, 7),
        R(1, 0, Attr.INPUT, ObjectRef(3, 0)),
        R(3, 0, Attr.INPUT, ObjectRef(2, 0)),
    ])


ENGINE = build_engine()

members = st.sampled_from(["file", "process", "node", "martian"])
edges = st.sampled_from(["input", "forkparent", "nmae", "name", "exec"])
quants = st.sampled_from(["", "*", "?", "{1,3}"])
roots = st.sampled_from(["F", "Zed", "Provenance"])
functions = st.sampled_from(["count", "frob", "len", "max"])
atoms = st.sampled_from(["name", "pid", "version", "oops"])


@st.composite
def queries(draw):
    member = draw(members)
    reverse = "^" if draw(st.booleans()) else ""
    root = draw(roots)
    if root == "Provenance":
        second = f"Provenance.{draw(members)} as A"
    else:
        second = f"{root}.{reverse}{draw(edges)}{draw(quants)} as A"
    select = draw(st.sampled_from(
        ["A", f"{draw(functions)}(A.{draw(atoms)})", f"A.{draw(atoms)}"]))
    text = f"select {select} from Provenance.{member} as F {second}"
    if draw(st.booleans()):
        literal = draw(st.sampled_from(['"x"', "3", "true"]))
        text += f" where A.{draw(atoms)} = {literal}"
    return text


@given(queries())
@settings(max_examples=400, deadline=None)
def test_accepted_queries_never_raise_name_errors(text):
    query = parse(text)
    diagnostics = check_query(query, ENGINE.vocabulary())
    assume(not any(d.severity == ERROR for d in diagnostics))
    try:
        ENGINE.execute(text, check=False)
    except PQLNameError as exc:                      # pragma: no cover
        pytest.fail(f"lint accepted {text!r} but evaluation raised "
                    f"{exc!r}")


@given(queries())
@settings(max_examples=400, deadline=None)
def test_prepass_rejections_are_positioned(text):
    """Whatever the pre-pass rejects, it rejects with a position."""
    query = parse(text)
    for diag in check_query(query, ENGINE.vocabulary()):
        if diag.severity == ERROR:
            assert diag.line >= 1


# -- the source-tree pass over the shipped tree -----------------------------

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "src", "repro")


def _run_check_tree():
    from repro.lint.layercheck import check_tree

    return json.dumps([str(d) for d in check_tree(SRC_ROOT)])


def test_check_tree_is_deterministic_and_strict_clean():
    """Two full runs over src/repro: byte-identical JSON, and clean
    enough for --strict (no diagnostics at all)."""
    first = _run_check_tree()
    assert first == _run_check_tree()
    assert first == "[]"
