"""Figure 1 + section 3.1: the layered anomaly-detection scenario.

A workstation runs the Provenance Challenge workflow under PA-Kepler,
reading inputs from one PA-NFS server and writing outputs to a second.
Between two runs, a colleague silently modifies an input on the input
server.  The benchmark regenerates the figure's point:

* Kepler-layer provenance alone is *identical* across the runs (the
  change happened beneath it);
* PASS-layer provenance alone cannot tie the changed input to the
  changed output through the workflow's internals;
* the *integrated* provenance answers it: the two runs' ancestries
  differ exactly in the version of the modified input.
"""

from __future__ import annotations

import pytest

from repro.apps.kepler.challenge import build_challenge, generate_inputs
from repro.apps.kepler.director import run_workflow
from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer
from repro.pql.engine import QueryEngine
from repro.query.helpers import ancestry_refs, newest_ref_by_name, provenance_diff
from repro.system import System


def _boot_figure1():
    clock = SimClock()
    input_server_sys = System.boot(provenance=True, hostname="inputs",
                                   clock=clock, pass_volumes=("expin",),
                                   plain_volumes=())
    output_server_sys = System.boot(provenance=True, hostname="outputs",
                                    clock=clock, pass_volumes=("expout",),
                                    plain_volumes=())
    input_server = NFSServer(input_server_sys, "expin")
    output_server = NFSServer(output_server_sys, "expout")
    workstation = System.boot(provenance=True, hostname="workstation",
                              clock=clock, pass_volumes=("local",),
                              plain_volumes=())
    in_client = NFSClient(workstation, input_server,
                          mountpoint="/inputs", name="nfs-in")
    out_client = NFSClient(workstation, output_server,
                           mountpoint="/outputs", name="nfs-out")
    return (workstation, input_server_sys, output_server_sys,
            in_client, out_client)


def _run_challenge(workstation, run_tag):
    wf = build_challenge("/inputs/data", f"/local/work{run_tag}",
                         "/outputs")
    from repro.apps.kepler.challenge import ensure_dirs
    ensure_dirs(workstation, f"/local/work{run_tag}")
    return run_workflow(workstation, wf, recording="pass",
                        engine_path="/local/bin/kepler")


@pytest.mark.benchmark(group="figure1")
def test_figure1_anomaly_detection(benchmark):
    def scenario():
        (workstation, in_sys, out_sys,
         in_client, out_client) = _boot_figure1()
        from repro.apps.kepler.challenge import ensure_dirs
        ensure_dirs(workstation, "/inputs/data")
        generate_inputs(workstation, "/inputs/data")

        # Monday's run.
        _run_challenge(workstation, "mon")
        with workstation.process() as proc:
            fd = proc.open("/outputs/atlas-x.gif", "r")
            monday_output = proc.read(fd)
            proc.close(fd)
        in_client.sync()
        out_client.sync()
        workstation.sync()
        in_sys.sync()
        out_sys.sync()
        # The integrated view: one live graph over all three machines'
        # provenance, kept current by their later syncs.
        graph = QueryEngine.live(workstation.databases()
                                 + in_sys.databases()
                                 + out_sys.databases()).graph
        monday_ref = newest_ref_by_name(graph, "/outputs/atlas-x.gif")

        # Tuesday: a colleague silently modifies an input on the server.
        with in_sys.process(argv=["colleague"]) as proc:
            fd = proc.open("/expin/data/anatomy2.img", "r+")
            proc.read(fd)
            proc.write(fd, b"RECALIBRATED" * 100)
            proc.close(fd)

        # Wednesday's run.
        in_client.revalidate("/inputs/data/anatomy2.img")
        _run_challenge(workstation, "wed")
        with workstation.process() as proc:
            fd = proc.open("/outputs/atlas-x.gif", "r")
            wednesday_output = proc.read(fd)
            proc.close(fd)
        in_client.sync()
        out_client.sync()
        workstation.sync()
        in_sys.sync()
        out_sys.sync()
        wednesday_ref = newest_ref_by_name(graph, "/outputs/atlas-x.gif")
        diff = provenance_diff(graph, monday_ref, wednesday_ref)
        return monday_output, wednesday_output, graph, diff

    monday_output, wednesday_output, graph, diff = benchmark.pedantic(
        scenario, rounds=1, iterations=1)

    # The outputs differ -- the user notices the anomaly.
    assert monday_output != wednesday_output

    # The integrated ancestry diff pinpoints the modified input: a
    # version of anatomy2.img appears only in Wednesday's ancestry.
    def names_of(refs):
        out = {}
        for ref in refs:
            for name in graph.node(ref).atoms.get("name", ()):
                out.setdefault(name, set()).add(ref.version)
        return out

    only_wednesday = names_of(diff["only_right"])
    assert any(name.endswith("anatomy2.img") for name in only_wednesday), (
        f"expected the modified input in the diff, got {only_wednesday}")
    # The unmodified inputs are in the *common* ancestry.
    common = names_of(diff["common"])
    assert any(name.endswith("anatomy1.img") for name in common)
    # And the workflow internals (operators) are visible in the
    # integrated ancestry -- the part Kepler contributes.
    wednesday_names = names_of(
        ancestry_refs(graph,
                      newest_ref_by_name(graph, "/outputs/atlas-x.gif")))
    assert "softmean" in wednesday_names
    print(f"\nFigure 1 scenario: output changed; ancestry diff names "
          f"{sorted(only_wednesday)} as Wednesday-only ancestors")
