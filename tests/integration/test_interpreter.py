"""Tests for the provenance-aware interpreter (the paper's future work).

The wrapper loses provenance across built-in operators; the interpreter
must not: ``(a + b) * c`` written to a file leaves an ancestry chain
that reaches all three inputs.
"""

import pytest

from repro.apps.papython.interpreter import (
    InterpreterError,
    ProvenanceInterpreter,
)
from repro.core.records import Attr
from repro.query.helpers import ancestry_refs


def run_interp(system, body):
    out = {}

    def program(sc):
        interp = ProvenanceInterpreter(sc)
        out["result"] = body(interp, sc)
        return 0

    system.register_program("/pass/bin/pa-python", program, size=1 << 20)
    system.run("/pass/bin/pa-python", argv=["pa-python", "script.py"])
    return out["result"]


def ancestry_labels(system, path):
    system.sync()
    db = system.database("pass")
    ref = system.find_by_name(path)[0]
    names = set()
    for anc in ancestry_refs(system.query_engine().graph, ref):
        names.update(str(v) for v in db.attribute_values(anc, Attr.NAME))
    return names


class TestExpressions:
    def test_arithmetic_propagates_provenance(self, system):
        def body(interp, sc):
            env = {
                "a": interp.lift(2, "input-a"),
                "b": interp.lift(3, "input-b"),
                "c": interp.lift(4, "input-c"),
            }
            result = interp.eval("(a + b) * c", env)
            assert result.value == 20
            interp.write_result("/pass/answer", result)

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/answer")
        # Every input AND the operator applications are ancestors.
        assert {"input-a", "input-b", "input-c"} <= labels
        assert any(label.startswith("add#") for label in labels)
        assert any(label.startswith("mul#") for label in labels)

    def test_unused_input_not_in_ancestry(self, system):
        def body(interp, sc):
            env = {
                "used": interp.lift(1, "used-input"),
                "ignored": interp.lift(99, "ignored-input"),
            }
            result = interp.eval("used + 1", env)
            interp.write_result("/pass/out", result)

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/out")
        assert "used-input" in labels
        assert "ignored-input" not in labels

    def test_comparisons_and_boolean_ops(self, system):
        def body(interp, sc):
            env = {"x": interp.lift(5, "x"), "y": interp.lift(3, "y")}
            result = interp.eval("x > y and not y > x", env)
            assert result.value is True
            return result

        run_interp(system, body)

    def test_subscript_and_collections(self, system):
        def body(interp, sc):
            env = {"xs": interp.lift([10, 20, 30], "the-list"),
                   "i": interp.lift(1, "the-index")}
            result = interp.eval("xs[i] + 1", env)
            assert result.value == 21
            interp.write_result("/pass/pick", result)

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/pick")
        assert {"the-list", "the-index"} <= labels

    def test_conditional_expression(self, system):
        def body(interp, sc):
            env = {"flag": interp.lift(True, "flag"),
                   "a": interp.lift(1, "a"), "b": interp.lift(2, "b")}
            assert interp.eval("a if flag else b", env).value == 1

        run_interp(system, body)

    def test_calls_track_function_and_args(self, system):
        def body(interp, sc):
            env = {"double": interp.lift(lambda v: v * 2, "double-fn"),
                   "n": interp.lift(21, "n")}
            result = interp.eval("double(n)", env)
            assert result.value == 42
            interp.write_result("/pass/called", result)

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/called")
        assert {"double-fn", "n"} <= labels


class TestStatements:
    def test_assignment_and_augassign(self, system):
        def body(interp, sc):
            env = {"seed": interp.lift(10, "seed")}
            interp.exec("total = seed\ntotal += 5", env)
            assert env["total"].value == 15
            interp.write_result("/pass/total", env["total"])

        run_interp(system, body)
        assert "seed" in ancestry_labels(system, "/pass/total")

    def test_loop_accumulation_tracks_every_item(self, system):
        def body(interp, sc):
            env = {"xs": interp.lift([1, 2, 3, 4], "data"),
                   "total": interp.lift(0, "zero")}
            interp.exec("for x in xs:\n    total = total + x", env)
            assert env["total"].value == 10
            interp.write_result("/pass/sum", env["total"])

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/sum")
        assert "data" in labels
        assert "data[2]" in labels        # per-item provenance

    def test_while_and_if(self, system):
        def body(interp, sc):
            env = {"n": interp.lift(5, "n"),
                   "acc": interp.lift(1, "one")}
            interp.exec(
                "while n > 1:\n"
                "    acc = acc * n\n"
                "    n = n - 1\n",
                env)
            assert env["acc"].value == 120

        run_interp(system, body)

    def test_the_wrapper_gap_is_closed(self, system):
        """The exact §6.5 regret: with the wrapper, plain ``a + b`` on
        unwrapped values loses provenance.  With the interpreter, the
        same expression keeps it."""
        from repro.apps.papython import ProvenanceTracker

        def body(interp, sc):
            tracker = ProvenanceTracker(sc)
            a = tracker.wrap_value(1, "wrapped-a")
            b = tracker.wrap_value(2, "wrapped-b")
            lost = a.value + b.value           # wrapper world: plain int
            assert not hasattr(lost, "fd")
            env = {"a": interp.lift(1, "interp-a"),
                   "b": interp.lift(2, "interp-b")}
            kept = interp.eval("a + b", env)
            interp.write_result("/pass/kept", kept)

        run_interp(system, body)
        labels = ancestry_labels(system, "/pass/kept")
        assert {"interp-a", "interp-b"} <= labels


class TestErrors:
    def test_unbound_name(self, system):
        def body(interp, sc):
            with pytest.raises(InterpreterError):
                interp.eval("missing + 1", {})

        run_interp(system, body)

    def test_unsupported_construct(self, system):
        def body(interp, sc):
            with pytest.raises(InterpreterError):
                interp.exec("import os", {})
            with pytest.raises(InterpreterError):
                interp.eval("[x for x in y]", {})

        run_interp(system, body)

    def test_non_callable_call(self, system):
        def body(interp, sc):
            env = {"n": interp.lift(5, "n")}
            with pytest.raises(InterpreterError):
                interp.eval("n(1)", env)

        run_interp(system, body)
