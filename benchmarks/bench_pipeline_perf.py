"""Provenance-pipeline throughput micro-benchmarks (real wall-clock).

Engineering guards on the hot path the workloads exercise: syscall ->
observer -> analyzer -> distributor -> Lasagna, and Waldo's drain.

Machines boot with the shared ``QUIET_BOOT`` config (metrics off) so
the guards measure the pipeline itself; bench_obs_overhead.py measures
what turning the metrics on costs.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import Analyzer, ProtoRecord
from repro.core.pnode import ObjectRef
from repro.core.records import Attr
from repro.system import System

from benchmarks.conftest import QUIET_BOOT


@pytest.mark.benchmark(group="pipeline-perf")
def test_perf_write_syscall_with_provenance(benchmark):
    system = System.boot(config=QUIET_BOOT)
    shell = system.kernel.spawn_shell(["bench"])
    counter = [0]

    def one_file():
        counter[0] += 1
        fd = shell.open(f"/pass/bench-{counter[0]}", "w")
        shell.write(fd, b"x" * 256)
        shell.close(fd)

    benchmark(one_file)


@pytest.mark.benchmark(group="pipeline-perf")
def test_perf_read_syscall_with_provenance(benchmark):
    system = System.boot(config=QUIET_BOOT)
    shell = system.kernel.spawn_shell(["bench"])
    fd = shell.open("/pass/target", "w")
    shell.write(fd, b"y" * 4096)
    shell.close(fd)
    read_fd = shell.open("/pass/target", "r")

    def one_read():
        shell.pread(read_fd, 0, 4096)

    benchmark(one_read)


@pytest.mark.benchmark(group="pipeline-perf")
def test_perf_analyzer_throughput(benchmark):
    """Records per second through dedup + cycle avoidance."""
    sink = []
    analyzer = Analyzer(emit=sink.append, emit_batch=sink.extend)

    class Obj:
        __slots__ = ("pnode", "version")

        def __init__(self, pnode):
            self.pnode = pnode
            self.version = 0

        def ref(self):
            return ObjectRef(self.pnode, self.version)

    proc = Obj(1)
    counter = [100]

    def submit_batch():
        for _ in range(100):
            counter[0] += 1
            analyzer.submit(ProtoRecord(proc, Attr.INPUT,
                                        ObjectRef(counter[0], 0)))

    benchmark(submit_batch)
    assert analyzer.records_out > 0


@pytest.mark.benchmark(group="pipeline-perf")
def test_perf_waldo_drain(benchmark):
    """Segment ingestion into the indexed database."""
    from repro.core.records import ProvenanceRecord
    from repro.kernel.clock import SimClock
    from repro.kernel.params import LogParams
    from repro.storage.log import ProvenanceLog
    from repro.storage.waldo import Waldo

    def drain_one_segment():
        log = ProvenanceLog(SimClock(), LogParams(max_size=1 << 30))
        waldo = Waldo(log)
        for index in range(1000):
            log.append(ProvenanceRecord(ObjectRef(index % 50, 0),
                                        Attr.NAME, f"name-{index}"))
        log.flush()
        log.rotate()
        return waldo.drain()

    inserted = benchmark(drain_one_segment)
    assert inserted == 1000


@pytest.mark.benchmark(group="pipeline-perf")
def test_perf_end_to_end_sync(benchmark):
    """Full cycle: 200 files written, logs drained, graph rebuilt."""
    def cycle():
        system = System.boot(config=QUIET_BOOT)
        with system.process(argv=["writer"]) as proc:
            for index in range(200):
                fd = proc.open(f"/pass/f{index}", "w")
                proc.write(fd, b"data")
                proc.close(fd)
        system.sync()
        return len(system.database("pass"))

    records = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert records > 400
