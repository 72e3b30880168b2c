"""PA-Python integration tests: the section 3.3 use cases."""

from repro.core.records import Attr, ObjType
from repro.workloads.thermography import (
    buggy_crack_heating_curve,
    generate_logs,
    run_analysis,
)
from tests.conftest import read_file, write_file
from repro.query.helpers import ancestry_refs


def names_and_types(db, refs):
    names, types = set(), set()
    for ref in refs:
        names.update(db.attribute_values(ref, Attr.NAME))
        types.update(db.attribute_values(ref, Attr.TYPE))
    return names, types


class TestWrapperBasics:
    def test_wrapped_function_creates_objects(self, system):
        from repro.apps.papython import ProvenanceTracker

        def program(sc):
            tracker = ProvenanceTracker(sc)
            double = tracker.wrap_function(lambda x: x * 2, name="double")
            value = tracker.wrap_value(21, "the-answer-half")
            result = double(value)
            assert result.value == 42
            tracker.write_file("/pass/result.txt", result)
            return 0

        system.register_program("/pass/bin/app", program)
        system.run("/pass/bin/app")
        system.sync()
        db = system.database("pass")
        out_ref = system.find_by_name("/pass/result.txt")[0]
        ancestors = ancestry_refs(system.query_engine().graph, out_ref)
        names, types = names_and_types(db, ancestors)
        assert ObjType.FUNCTION in types
        assert ObjType.INVOCATION in types
        assert "double" in names
        assert "the-answer-half" in names

    def test_untracked_args_pass_through(self, system):
        from repro.apps.papython import ProvenanceTracker

        def program(sc):
            tracker = ProvenanceTracker(sc)
            add = tracker.wrap_function(lambda a, b: a + b, name="add")
            result = add(1, 2)           # plain values: the built-in gap
            assert result.value == 3
            return 0

        system.register_program("/pass/bin/app", program)
        system.run("/pass/bin/app")

    def test_wrap_module(self, system):
        from repro.apps.papython import ProvenanceTracker

        def program(sc):
            tracker = ProvenanceTracker(sc)
            module = {"inc": lambda x: x + 1, "dec": lambda x: x - 1,
                      "CONST": 5}
            wrapped = tracker.wrap_module(module)
            assert set(wrapped) == {"inc", "dec"}
            value = tracker.wrap_value(1, "v")
            assert wrapped["inc"](value).value == 2
            return 0

        system.register_program("/pass/bin/app", program)
        system.run("/pass/bin/app")


class TestDataOriginUseCase:
    def test_plot_blames_only_used_xml_files(self, system):
        """PASS alone blames all XML files; PA-Python identifies the
        exact documents used.  The layered ancestry must contain the
        used files via INVOCATION objects."""
        generate_logs(system, "/pass/thermo", experiments=12, specimens=3)
        stats = run_analysis(system, "/pass/thermo", "/pass/plot.dat",
                             stress_class="high")
        assert 0 < stats["used"] < stats["total"]
        system.sync()
        db = system.database("pass")
        plot_ref = system.find_by_name("/pass/plot.dat")[0]
        ancestors = ancestry_refs(system.query_engine().graph, plot_ref)
        names, types = names_and_types(db, ancestors)
        assert ObjType.INVOCATION in types
        assert "crack_heating" in names
        # Layered answer: which XML documents were *used*?  The PYOBJECT
        # documents feeding the crack_heating invocation.
        used_docs = [
            ref for ref in ancestors
            if ObjType.PYOBJECT in db.attribute_values(ref, Attr.TYPE)
            and any(str(name).endswith(".xml")
                    for name in db.attribute_values(ref, Attr.NAME))
        ]
        # Each used doc must trace onward to its source file.
        xml_files = {
            name for ref in ancestors
            for name in db.attribute_values(ref, Attr.NAME)
            if str(name).startswith("/pass/thermo/")
        }
        assert used_docs
        assert xml_files

    def test_used_subset_is_queryable(self, system):
        """The docs actually used by the calc invocation, via PQL."""
        generate_logs(system, "/pass/thermo", experiments=12, specimens=3)
        stats = run_analysis(system, "/pass/thermo", "/pass/plot.dat",
                             stress_class="high")
        system.sync()
        rows = system.query("""
            select Doc
            from Provenance.invocation as Inv
                 Inv.input as Doc
            where Inv.name = "crack_heating#%d"
        """ % (stats["total"] + 1))
        doc_rows = [row for row in rows
                    if row.atoms.get("type") == (ObjType.PYOBJECT,)]
        # parse invocations are 1..total; the curve call is total+1.
        assert len(doc_rows) == stats["used"]


class TestProcessValidationUseCase:
    def test_buggy_routine_runs_identified(self, system):
        """Which outputs descend from BOTH the new library version and
        the calculation routine?  (Neither layer alone can answer.)"""
        generate_logs(system, "/pass/thermo", experiments=8, specimens=2)
        write_file(system, "/pass/lib/calc-v1.py", b"# library v1")
        write_file(system, "/pass/lib/calc-v2.py", b"# library v2 (buggy)")
        run_analysis(system, "/pass/thermo", "/pass/plot-old.dat",
                     library_path="/pass/lib/calc-v1.py")
        run_analysis(system, "/pass/thermo", "/pass/plot-new.dat",
                     calc=buggy_crack_heating_curve,
                     library_path="/pass/lib/calc-v2.py")
        system.sync()
        db = system.database("pass")
        suspect = []
        for plot in ("/pass/plot-old.dat", "/pass/plot-new.dat"):
            ref = system.find_by_name(plot)[0]
            ancestors = ancestry_refs(system.query_engine().graph, ref)
            names, types = names_and_types(db, ancestors)
            used_buggy_lib = "/pass/lib/calc-v2.py" in names
            used_calc_routine = "crack_heating" in names
            if used_buggy_lib and used_calc_routine:
                suspect.append(plot)
        assert suspect == ["/pass/plot-new.dat"]

    def test_buggy_output_actually_differs(self, system):
        generate_logs(system, "/pass/thermo", experiments=8, specimens=2)
        run_analysis(system, "/pass/thermo", "/pass/good.dat")
        run_analysis(system, "/pass/thermo", "/pass/bad.dat",
                     calc=buggy_crack_heating_curve)
        good = read_file(system, "/pass/good.dat")
        bad = read_file(system, "/pass/bad.dat")
        assert good != bad
        assert b"\t0.0000" in bad
