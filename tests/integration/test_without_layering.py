"""The paper's 'Without Layering' counterfactuals, demonstrated.

Each section-3 use case contrasts what single-layer provenance can and
cannot answer.  These tests pin the *cannot* side: they run the same
scenarios with one layer missing and show the question becomes
unanswerable -- which is the paper's whole motivation.
"""

from repro.apps.kepler import run_workflow
from repro.apps.kepler.challenge import (
    build_challenge,
    ensure_dirs,
    generate_inputs,
)
from repro.core.records import Attr
from repro.query.helpers import ancestry_refs
from tests.conftest import read_file, write_file


class TestKeplerOnlyMissesTheInputChange:
    def test_kepler_layer_records_identical_across_runs(self, system):
        """Section 3.1, 'Without Layering': if we examine only the
        Kepler provenance, the two executions look identical -- the
        input changed beneath the workflow engine."""
        ensure_dirs(system, "/pass/inputs", "/pass/w1", "/pass/w2",
                    "/pass/out")
        generate_inputs(system, "/pass/inputs")

        def kepler_view(workdir):
            """What the workflow layer alone records: operators,
            parameters, and transfer topology -- via the database
            recorder (Kepler's own 'relational database' option)."""
            wf = build_challenge("/pass/inputs", workdir, "/pass/out")
            director = run_workflow(system, wf, recording="database")
            rows = director.recorder.rows
            normalized = []
            for row in rows:
                if row[0] == "operator":
                    # Parameter *names* and types; paths differ by run
                    # directory, so strip the values like-for-like.
                    normalized.append((row[0], row[1], row[2]))
                elif row[0] == "transfer":
                    normalized.append(row)
            return normalized

        monday = kepler_view("/pass/w1")
        monday_output = read_file(system, "/pass/out/atlas-x.gif")
        # The silent modification.
        write_file(system, "/pass/inputs/anatomy2.img", b"TAMPERED" * 64)
        wednesday = kepler_view("/pass/w2")
        wednesday_output = read_file(system, "/pass/out/atlas-x.gif")

        assert monday_output != wednesday_output      # outputs differ...
        assert monday == wednesday                    # ...Kepler can't say why


class TestPassOnlyMissesTheUrl:
    def test_plain_browser_write_has_no_url(self, system):
        """Section 3.2, 'Without Layering': PASSv2 alone only records
        that the file was downloaded by the browser -- no URL."""
        def plain_browser(sc):
            # A browser that is NOT provenance-aware: it just writes.
            fd = sc.open("/pass/downloaded.png", "w")
            sc.write(fd, b"PNG-DATA")
            sc.close(fd)
            return 0

        system.register_program("/pass/bin/browser", plain_browser)
        system.run("/pass/bin/browser", argv=["browser"])
        system.sync()
        db = system.database("pass")
        ref = system.find_by_name("/pass/downloaded.png")[0]
        records = db.records_of(ref.pnode)
        attrs = {r.attr for r in records}
        # The process dependency is there; the URL is simply absent.
        assert Attr.INPUT in attrs
        assert Attr.FILE_URL not in attrs
        assert Attr.CURRENT_URL not in attrs


class TestPassOnlyBlamesEveryXmlFile:
    def test_reads_all_uses_some(self, system):
        """Section 3.3, 'Without Layering': the analysis program reads
        every XML file to pick a subset; PASS alone reports the plot
        derives from all of them."""
        from repro.workloads.thermography import generate_logs

        generate_logs(system, "/pass/thermo", experiments=10, specimens=2)

        def non_pa_analysis(sc):
            used = []
            for name in sc.readdir("/pass/thermo"):
                fd = sc.open(f"/pass/thermo/{name}", "r")
                doc = sc.read(fd)
                sc.close(fd)
                if b"<stress_class>high</stress_class>" in doc:
                    used.append(doc)
            out = sc.open("/pass/plot.dat", "w")
            sc.write(out, b"\n".join(d[:20] for d in used))
            sc.close(out)
            return 0

        system.register_program("/pass/bin/analyze", non_pa_analysis)
        system.run("/pass/bin/analyze", argv=["python", "analyze.py"])
        system.sync()
        db = system.database("pass")
        plot = system.find_by_name("/pass/plot.dat")[0]
        xml_ancestors = {
            name for ref in ancestry_refs(system.query_engine().graph, plot)
            for name in db.attribute_values(ref, Attr.NAME)
            if str(name).endswith(".xml")
        }
        # All ten blamed, even though only a subset was used.
        assert len(xml_ancestors) == 10
