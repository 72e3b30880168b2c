"""Table 2 (left half): elapsed-time overhead, PASSv2 vs vanilla ext3.

Paper row / our row, per workload::

    Benchmark           Ext3    PASSv2   Overhead   (paper overhead)
    Linux Compile       1746    2018     15.6%
    Postmark             453     505     11.5%
    Mercurial Activity   614     756     23.1%
    Blast                 69     69.5     0.7%
    PA-Kepler           1246    1264      1.4%

Absolute seconds differ (our substrate is a scaled simulator); the
regenerated quantity is the overhead column and its ordering.  Beside
the simulated seconds each row prints the *wall* seconds the two arms
took on this machine -- what capturing provenance costs the simulator
itself (EXPERIMENTS.md, "Table 2, wall clock"); nothing is asserted on
them.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALES, PAPER_TABLE2, print_row
from repro.workloads import (
    ALL_WORKLOADS,
    BlastWorkload,
    CompileWorkload,
    KeplerWorkload,
    MercurialWorkload,
    PostmarkWorkload,
)
from repro.workloads.base import overhead_pct, run_local


def _bench_one(benchmark, workload_cls, table2_rows):
    workload = workload_cls(scale=BENCH_SCALES[workload_cls.name])

    def experiment():
        base = run_local(workload, provenance=False)
        passv2 = run_local(workload, provenance=True)
        return base, passv2

    base, passv2 = benchmark.pedantic(experiment, rounds=1, iterations=1)
    overhead = overhead_pct(base, passv2)
    table2_rows.setdefault("local", {})[workload.name] = (
        base.elapsed, passv2.elapsed, overhead)
    print()
    print_row(workload.name, f"{base.elapsed:.1f}s",
              f"{passv2.elapsed:.1f}s", f"{overhead:.1f}%",
              f"(paper {PAPER_TABLE2[workload.name]['local']}%)")
    print_row("  wall clock", f"{base.wall_s:.3f}s", f"{passv2.wall_s:.3f}s",
              f"x{passv2.wall_s / base.wall_s:.2f}")
    return base, passv2, overhead


@pytest.mark.benchmark(group="table2-passv2")
def test_linux_compile(benchmark, table2_rows):
    _, _, overhead = _bench_one(benchmark, CompileWorkload, table2_rows)
    assert 5.0 < overhead < 35.0


@pytest.mark.benchmark(group="table2-passv2")
def test_postmark(benchmark, table2_rows):
    _, _, overhead = _bench_one(benchmark, PostmarkWorkload, table2_rows)
    assert 4.0 < overhead < 30.0


@pytest.mark.benchmark(group="table2-passv2")
def test_mercurial_activity(benchmark, table2_rows):
    _, _, overhead = _bench_one(benchmark, MercurialWorkload, table2_rows)
    assert 10.0 < overhead < 45.0


@pytest.mark.benchmark(group="table2-passv2")
def test_blast(benchmark, table2_rows):
    _, _, overhead = _bench_one(benchmark, BlastWorkload, table2_rows)
    assert overhead < 3.0


@pytest.mark.benchmark(group="table2-passv2")
def test_pa_kepler(benchmark, table2_rows):
    _, _, overhead = _bench_one(benchmark, KeplerWorkload, table2_rows)
    assert overhead < 4.0


@pytest.mark.benchmark(group="table2-passv2")
def test_shape_matches_paper(benchmark, table2_rows):
    """The paper's qualitative claims for the left half of Table 2."""
    def collect():
        rows = table2_rows.get("local", {})
        missing = [cls.name for cls in ALL_WORKLOADS if cls.name not in rows]
        for cls in ALL_WORKLOADS:
            if cls.name in missing:
                workload = cls(scale=BENCH_SCALES[cls.name])
                base = run_local(workload, provenance=False)
                passv2 = run_local(workload, provenance=True)
                rows[workload.name] = (base.elapsed, passv2.elapsed,
                                       overhead_pct(base, passv2))
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    print("\n--- Table 2 (PASSv2 vs ext3), regenerated ---")
    print_row("Benchmark", "Ext3", "PASSv2", "Overhead", "Paper")
    for name in PAPER_TABLE2:
        base_s, pass_s, ovh = rows[name]
        print_row(name, f"{base_s:.1f}", f"{pass_s:.1f}", f"{ovh:.1f}%",
                  f"{PAPER_TABLE2[name]['local']}%")
    ovh = {name: rows[name][2] for name in rows}
    # Mercurial suffers most; compile next; CPU-bound are ~free.
    assert ovh["Mercurial Activity"] > ovh["Linux Compile"]
    assert ovh["Linux Compile"] > ovh["Blast"]
    assert ovh["Postmark"] > ovh["PA-Kepler"]
    assert ovh["Blast"] < 3.0 and ovh["PA-Kepler"] < 4.0
    # Everything lands in the paper's "1% to 23%" reasonable-cost band
    # (with slack for the simulated substrate).
    assert all(value < 45.0 for value in ovh.values())
