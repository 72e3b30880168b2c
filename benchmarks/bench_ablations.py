"""Ablations of the design choices DESIGN.md calls out.

1. **Duplicate elimination** (section 5.4): programs do I/O in small
   blocks; without the analyzer's dedup the record stream explodes.
2. **Log + Waldo vs direct database writes** (section 5.6): PASSv1
   wrote provenance straight into indexed databases -- "neither
   flexible nor scalable"; the ablation regresses Lasagna to
   synchronous random-placement writes and measures the hit.
3. **Stackable double buffering** (section 7): re-run Postmark with
   the cache-halving disabled to isolate how much of its overhead the
   stacking accounts for (the paper's 14.8-of-16.8 decomposition).
4. **WAP** (section 5.6): without write-ahead ordering, a crash leaves
   unprovenanced data recovery cannot even flag.
"""

from __future__ import annotations

import pytest

from repro.system import System
from repro.workloads import MercurialWorkload, PostmarkWorkload
from repro.workloads.base import overhead_pct, run_local, run_nfs


@pytest.mark.benchmark(group="ablations")
def test_dedup_ablation(benchmark):
    """Small-block I/O floods the pipeline without dedup."""
    def experiment():
        system = System.boot()
        with system.process(argv=["blockwriter"]) as proc:
            fd = proc.open("/pass/big", "w")
            for _ in range(256):
                proc.write(fd, b"\x00" * 4096)     # 1 MB in 4 KB blocks
            proc.close(fd)
        with_dedup = system.kernel.analyzer.records_out

        system2 = System.boot()
        system2.kernel.analyzer.dedup_enabled = False
        with system2.process(argv=["blockwriter"]) as proc:
            fd = proc.open("/pass/big", "w")
            for _ in range(256):
                proc.write(fd, b"\x00" * 4096)
            proc.close(fd)
        without_dedup = system2.kernel.analyzer.records_out
        return with_dedup, without_dedup

    with_dedup, without_dedup = benchmark.pedantic(experiment, rounds=1,
                                                   iterations=1)
    print(f"\nrecords with dedup: {with_dedup}, without: {without_dedup} "
          f"({without_dedup / with_dedup:.0f}x blow-up)")
    assert without_dedup > 20 * with_dedup


@pytest.mark.benchmark(group="ablations")
def test_passv1_direct_database_regression(benchmark):
    """The log-then-Waldo pipeline vs PASSv1-style synchronous DB writes."""
    def experiment():
        workload = MercurialWorkload(scale=0.4)
        base = run_local(workload, provenance=False)
        passv2 = run_local(workload, provenance=True)

        from repro.kernel.clock import Stopwatch
        system = System.boot()
        system.kernel.volume("pass").lasagna.passv1_direct_db = True
        workload.setup(system, "/pass")
        with Stopwatch(system.kernel.clock) as watch:
            workload.run(system, "/pass")
        return base, passv2, watch.elapsed

    base, passv2, passv1_elapsed = benchmark.pedantic(experiment,
                                                      rounds=1,
                                                      iterations=1)
    v2 = overhead_pct(base, passv2)
    v1 = 100.0 * (passv1_elapsed - base.elapsed) / base.elapsed
    print(f"\nMercurial overhead: PASSv2 (log+Waldo) {v2:.1f}% vs "
          f"PASSv1-style direct DB {v1:.1f}%")
    assert v1 > v2 * 1.5          # the log pipeline must clearly win


@pytest.mark.benchmark(group="ablations")
def test_stackable_cache_share_of_postmark(benchmark):
    """Isolate double buffering's share of Postmark's overhead."""
    from dataclasses import replace

    from repro.kernel.params import CacheParams, SimParams

    def experiment():
        workload = PostmarkWorkload(scale=1.0)
        base = run_local(workload, provenance=False)
        full = run_local(workload, provenance=True)
        no_shrink = SimParams(cache=CacheParams(stack_cache_factor=1.0))
        isolated = run_local(workload, provenance=True, params=no_shrink)
        return base, full, isolated

    base, full, isolated = benchmark.pedantic(experiment, rounds=1,
                                              iterations=1)
    total = overhead_pct(base, full)
    without_buffering = overhead_pct(base, isolated)
    share = total - without_buffering
    print(f"\nPostmark overhead {total:.1f}%, of which double buffering "
          f"{share:.1f} points (paper: 14.8 of 16.8 for PA-NFS)")
    assert share > 0.5            # buffering must be a visible component
    assert without_buffering < total


@pytest.mark.benchmark(group="ablations")
def test_wap_ordering_matters(benchmark):
    """With WAP, a crash between provenance and data is *detected*;
    losing the ordering would mean silently unprovenanced data."""
    from repro.faults import CrashFault, FaultInjector, FaultPlan
    from repro.storage.recovery import recover

    def experiment():
        # The second data write dies in the WAP window.
        plan = FaultPlan().add("lasagna.write.pre_data", "crash", nth=2)
        system = System.boot(faults=FaultInjector(plan))
        with system.process() as proc:
            fd = proc.open("/pass/f", "w")
            proc.write(fd, b"safe")
            proc.close(fd)
        lasagna = system.kernel.volume("pass").lasagna
        try:
            with system.process() as proc:
                fd = proc.open("/pass/f", "w")
                proc.write(fd, b"doomed-write")
                proc.close(fd)
        except CrashFault:
            pass
        lasagna.crash()
        return recover(lasagna)

    report = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\nrecovery flagged {len(report.inconsistent_data)} in-flight "
          f"write(s); {len(report.committed_records)} records survived")
    assert report.inconsistent_data
    assert report.committed_records


@pytest.mark.benchmark(group="ablations")
def test_overhead_ratio_scale_stable(benchmark):
    """EXPERIMENTS.md claims overhead ratios are stable in the workload
    scale factor (they are per-operation effects): verify across a 4x
    scale range for the Mercurial workload."""
    def experiment():
        ratios = []
        for scale in (0.1, 0.2, 0.4):
            workload = MercurialWorkload(scale=scale)
            base = run_local(workload, provenance=False)
            passv2 = run_local(workload, provenance=True)
            ratios.append(overhead_pct(base, passv2))
        return ratios

    ratios = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\nMercurial overhead across scales 0.1/0.2/0.4: "
          f"{[f'{r:.1f}%' for r in ratios]}")
    spread = max(ratios) - min(ratios)
    assert spread < 12.0, f"overhead ratio unstable across scales: {ratios}"


@pytest.mark.benchmark(group="ablations")
def test_analyzer_freeze_rate_is_modest(benchmark):
    """Cycle avoidance is conservative but must not version-explode."""
    def experiment():
        workload = MercurialWorkload(scale=0.4)
        from repro.kernel.clock import Stopwatch
        system = System.boot()
        workload.setup(system, "/pass")
        workload.run(system, "/pass")
        analyzer = system.kernel.analyzer
        return analyzer.freezes, analyzer.records_out

    freezes, records = benchmark.pedantic(experiment, rounds=1,
                                          iterations=1)
    print(f"\nfreezes: {freezes}, records: {records} "
          f"({100 * freezes / max(records, 1):.2f}% of records)")
    assert freezes < records * 0.2
