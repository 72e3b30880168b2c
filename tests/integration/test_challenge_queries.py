"""The First Provenance Challenge's canonical queries, in PQL.

The paper runs the PC1 fMRI workflow (sections 3.1, 5.7); the challenge
itself defined a set of standard queries every provenance system was
asked to answer.  This suite adapts the core ones to our layered store:

* Q1 -- the entire ancestry of one atlas graphic;
* Q2 -- only the *process/operator* steps in that ancestry;
* Q3 -- the final stages (softmean onward) that produced it;
* Q4 -- everything born inside a time window (TIME atoms);
* Q5 -- which atlas graphics derive from one anatomy image;
* Q6 -- outputs of align_warp runs with a particular parameter.
"""

import pytest

from repro.apps.kepler.challenge import (
    build_challenge,
    ensure_dirs,
    generate_inputs,
)
from repro.apps.kepler.director import run_workflow
from repro.core.records import Attr, ObjType


@pytest.fixture
def challenge_system(system):
    ensure_dirs(system, "/pass/inputs", "/pass/work", "/pass/out")
    generate_inputs(system, "/pass/inputs")
    workflow = build_challenge("/pass/inputs", "/pass/work", "/pass/out")
    run_workflow(system, workflow, recording="pass")
    system.sync()
    return system


def names(rows):
    out = set()
    for row in rows:
        if hasattr(row, "name"):
            out.add(row.name)
        else:
            out.add(str(row))
    return out


class TestChallengeQueries:
    def test_q1_full_ancestry(self, challenge_system):
        rows = challenge_system.query("""
            select A
            from Provenance.file as Atlas
                 Atlas.input* as A
            where Atlas.name = "/pass/out/atlas-x.gif"
        """)
        reached = names(rows)
        for i in (1, 2, 3, 4):
            assert f"/pass/inputs/anatomy{i}.img" in reached
        assert "/pass/inputs/reference.img" in reached
        assert "softmean" in reached

    def test_q2_process_steps_only(self, challenge_system):
        rows = challenge_system.query("""
            select Step.name
            from Provenance.file as Atlas
                 Atlas.input* as Step
            where Atlas.name = "/pass/out/atlas-x.gif"
                  and Step.type = "OPERATOR"
        """)
        steps = names(rows)
        assert {"align_warp1", "align_warp2", "align_warp3",
                "align_warp4", "reslice1", "softmean", "slicer_x",
                "convert_x"} <= steps
        # Stages feeding other axes must not appear.
        assert "slicer_y" not in steps
        assert "convert_z" not in steps

    def test_q3_final_stages(self, challenge_system):
        """The last processing stages: operators within a few hops."""
        rows = challenge_system.query("""
            select Step.name
            from Provenance.file as Atlas
                 Atlas.input{1,6} as Step
            where Atlas.name = "/pass/out/atlas-x.gif"
                  and Step.type = "OPERATOR"
        """)
        steps = names(rows)
        assert {"convert_x", "slicer_x", "softmean"} <= steps
        assert "align_warp1" not in steps     # stage 1 is further back

    def test_q4_time_window(self, challenge_system):
        """Everything born after the inputs were staged: the inputs'
        TIME atoms precede the workflow objects'."""
        input_times = challenge_system.query("""
            select max(F.time) from Provenance.file as F
            where F.name like "/pass/inputs/%"
        """)
        cutoff = input_times[0]
        rows = challenge_system.query(f"""
            select F.name from Provenance.file as F
            where F.time > {cutoff} and F.name like "/pass/out/%"
        """)
        produced = names(rows)
        assert {"/pass/out/atlas-x.gif", "/pass/out/atlas-y.gif",
                "/pass/out/atlas-z.gif"} <= produced

    def test_q5_outputs_from_one_anatomy_image(self, challenge_system):
        rows = challenge_system.query("""
            select D.name
            from Provenance.file as Anatomy
                 Anatomy.^input* as D
            where Anatomy.name = "/pass/inputs/anatomy3.img"
                  and D.name like "%.gif"
        """)
        assert names(rows) == {"/pass/out/atlas-x.gif",
                               "/pass/out/atlas-y.gif",
                               "/pass/out/atlas-z.gif"}

    def test_q6_operators_by_parameter(self, challenge_system):
        """Which outputs passed through the align_warp run configured
        with anatomy2's image?  (Parameter-based selection, PC1 Q6.)"""
        rows = challenge_system.query("""
            select D.name
            from Provenance.operator as Op
                 Op.^input* as D
            where Op.params like "%anatomy2.img%"
                  and D.name like "%.gif"
        """)
        assert names(rows) == {"/pass/out/atlas-x.gif",
                               "/pass/out/atlas-y.gif",
                               "/pass/out/atlas-z.gif"}

    def test_time_atoms_present_and_ordered(self, challenge_system):
        db = challenge_system.database("pass")
        find = challenge_system.find_by_name
        ref_in = find("/pass/inputs/anatomy1.img")[0]
        ref_out = find("/pass/out/atlas-x.gif")[0]
        t_in = [r.value for r in db.records_of(ref_in.pnode)
                if r.attr == Attr.TIME]
        t_out = [r.value for r in db.records_of(ref_out.pnode)
                 if r.attr == Attr.TIME]
        assert t_in and t_out
        assert min(t_in) <= min(t_out)
