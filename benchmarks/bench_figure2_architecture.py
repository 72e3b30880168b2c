"""Figure 2: the PASSv2 architecture, regenerated from a live system.

Drives one write through the whole stack and prints each of the seven
components with evidence it participated, in pipeline order::

    libpass -> interceptor -> observer -> analyzer -> distributor
            -> Lasagna -> Waldo (-> database)
"""

from __future__ import annotations

import pytest

from repro.core.records import Attr
from repro.system import System


@pytest.mark.benchmark(group="figure2")
def test_figure2_component_pipeline(benchmark):
    def drive():
        system = System.boot()

        def app(sc):
            dpapi = sc.dpapi                       # libpass
            fd = sc.open("/pass/artifact", "w")
            record = dpapi.record(fd, Attr.ANNOTATION, "disclosed")
            dpapi.pass_write(fd, b"data through every layer", [record])
            obj = dpapi.pass_mkobj()
            dpapi.pass_write(obj, records=[
                dpapi.record(obj, Attr.TYPE, "DATASET"),
            ])
            dpapi.pass_sync(obj)
            sc.close(fd)
            return 0

        system.register_program("/pass/bin/app", app)
        system.run("/pass/bin/app")
        system.sync()
        return system

    system = benchmark.pedantic(drive, rounds=1, iterations=1)
    kernel = system.kernel
    lasagna = kernel.volume("pass").lasagna
    waldo = system.tier.waldo("pass")

    components = [
        ("libpass", "DPAPI calls entered user-level library",
         kernel.interceptor.counts["open"] > 0),
        ("interceptor", f"syscall events: {dict(kernel.interceptor.counts)}",
         sum(kernel.interceptor.counts.values()) > 0),
        ("observer", "events translated into records",
         kernel.analyzer.records_in > 0),
        ("analyzer", f"in={kernel.analyzer.records_in} "
                     f"out={kernel.analyzer.records_out} "
                     f"dups={kernel.analyzer.duplicates_dropped}",
         kernel.analyzer.records_out > 0),
        ("distributor", f"cached={kernel.distributor.records_cached} "
                        f"flushed={kernel.distributor.records_flushed}",
         kernel.distributor.records_flushed > 0),
        ("lasagna", f"log flushes={lasagna.log.flushes} "
                    f"bytes={lasagna.log.bytes_logged}",
         lasagna.log.bytes_logged > 0),
        ("waldo", f"segments={waldo.segments_processed} "
                  f"db records={len(waldo.database)}",
         len(waldo.database) > 0),
    ]
    print("\n--- Figure 2: PASSv2 components, live ---")
    for name, evidence, ok in components:
        print(f"  {name:12s} {evidence}")
        assert ok, f"component {name} saw no traffic"

    # The disclosed ANNOTATION made it all the way to the database,
    # proving the application -> disk path is connected end to end.
    db = system.database("pass")
    annotations = [r for r in db.all_records() if r.attr == Attr.ANNOTATION]
    assert annotations
    # ...and the pass_mkobj DATASET object was persisted via pass_sync.
    datasets = [r for r in db.all_records()
                if r.attr == Attr.TYPE and r.value == "DATASET"]
    assert datasets
