"""System-level observability: stats/trace/elapsed through System.boot.

Exercises the wiring that ISSUE 2 calls the acceptance bar: after real
pipeline activity plus one query, every Figure-2 layer reports non-zero
counters, tracing captures the span tree, and elapsed() stays monotonic
when clocks are shared across boots.
"""

from repro.kernel.clock import SimClock
from repro.nfs import NFSClient, NFSServer, Network
from repro.obs import FIGURE2_LAYERS, LAYERS
from repro.system import System


def run_pipeline(system: System) -> None:
    with system.process(argv=["writer"]) as proc:
        fd = proc.open("/pass/a.txt", "w")
        proc.write(fd, b"payload")
        proc.close(fd)
    with system.process(argv=["copier"]) as proc:
        fd = proc.open("/pass/a.txt", "r")
        data = proc.read(fd)
        proc.close(fd)
        out = proc.open("/pass/b.txt", "w")
        proc.write(out, data)
        proc.close(out)
    system.sync()


class TestStats:
    def test_every_figure2_layer_reports_activity(self):
        system = System.boot()
        run_pipeline(system)
        system.query("select F from Provenance.file as F")
        stats = system.stats()
        for layer in FIGURE2_LAYERS:
            counters = stats[layer]["counters"]
            assert sum(counters.values()) > 0, layer

    def test_all_documented_layers_present(self):
        system = System.boot()
        run_pipeline(system)
        stats = system.stats()
        for layer in LAYERS:
            assert layer in stats      # nfs present even when idle

    def test_per_volume_breakdown(self):
        system = System.boot()
        run_pipeline(system)
        stats = system.stats()
        assert "pass" in stats["lasagna"]["volumes"]
        assert "pass" in stats["waldo"]["volumes"]

    def test_nfs_wire_counters_reach_the_client_snapshot(self):
        clock = SimClock()
        server_sys = System.boot(hostname="server", clock=clock,
                                 pass_volumes=("export",), plain_volumes=())
        client_sys = System.boot(hostname="client", clock=clock)
        network = Network(clock, client_sys.kernel.params.net,
                          obs=client_sys.obs)
        NFSClient(client_sys, NFSServer(server_sys, "export"), network,
                  mountpoint="/nfs")
        with client_sys.process() as proc:
            fd = proc.open("/nfs/remote.txt", "w")
            proc.write(fd, b"over the wire")
            proc.close(fd)
        counters = client_sys.stats()["nfs"]["counters"]
        assert counters["rpc_calls"] == network.calls > 0
        assert counters["bytes_sent"] > 0

    def test_fresh_boot_starts_from_zero(self):
        first = System.boot()
        run_pipeline(first)
        second = System.boot()
        emitted = second.stats()["observer"]["counters"]["records_emitted"]
        assert emitted == 0

    def test_observability_off_reports_nothing(self):
        system = System.boot(observability=False)
        run_pipeline(system)
        assert system.stats() == {}
        assert system.trace() == []
        # ...and the pipeline itself is unaffected.
        assert system.find_by_name("/pass/b.txt")


class TestTrace:
    def test_tracing_off_by_default(self):
        system = System.boot()
        run_pipeline(system)
        assert system.trace() == []

    def test_sync_and_query_produce_span_tree(self):
        system = System.boot(tracing=True)
        run_pipeline(system)
        system.query("select F from Provenance.file as F")
        spans = system.trace()
        names = [s["name"] for s in spans]
        assert "system.sync" in names
        assert "lasagna.sync" in names
        assert "waldo.drain" in names
        assert "pql.execute" in names
        sync = next(s for s in spans if s["name"] == "system.sync")
        drain = next(s for s in spans if s["name"] == "waldo.drain")
        assert drain["parent_id"] == sync["span_id"]
        assert drain["depth"] == 1

    def test_live_splice_span_counts_the_records_applied(self):
        system = System.boot(tracing=True)
        run_pipeline(system)
        graph = system.query_engine().graph
        before = graph.records_applied
        run_pipeline(system)
        applied = [s["tags"]["records"] for s in system.trace()
                   if s["name"] == "oem.apply"]
        assert applied and sum(applied) == graph.records_applied - before

    def test_spans_carry_simulated_time(self):
        system = System.boot(tracing=True)
        run_pipeline(system)
        sync = next(s for s in system.trace()
                    if s["name"] == "system.sync")
        assert sync["sim_start"] >= 0.0
        assert sync["sim_elapsed"] >= 0.0


class TestElapsed:
    def test_starts_at_zero(self):
        assert System.boot().elapsed() == 0.0

    def test_advances_with_work(self):
        system = System.boot()
        run_pipeline(system)
        assert system.elapsed() > 0.0

    def test_monotonic_across_shared_clock_boots(self):
        clock = SimClock()
        first = System.boot(clock=clock)
        run_pipeline(first)
        assert first.elapsed() > 0.0
        # Second machine on the same (advanced) clock still starts at 0.
        second = System.boot(clock=clock, hostname="later")
        assert second.elapsed() == 0.0
        run_pipeline(second)
        assert second.elapsed() > 0.0
        assert first.elapsed() > second.elapsed()
