"""Sharded storage tier on a churn workload (wall-clock).

The same record-dense churn workload runs on identically parameterized
systems at 1, 2 and 4 intra-volume shards; the reported number is the
storage tier's critical path (see :func:`run_shard_arm`).

The workload stresses every ingest stage: chunked writes
(duplicate-elimination storms for the analyzer's hot-triple cache),
process churn (identity bursts), cross-process overwrites (freeze
traffic), and DPAPI bulk disclosure (big proto batches through
``disclosed_write``).  ``benchmarks/e2e`` runs the same pattern
(:func:`churn_round`) end to end as its ``disclose_burst`` workload.

Semantics are asserted, not assumed: every arm must drain the same
records into the union of its shard databases, compared modulo the two
things that legitimately differ across boots (volume ids inside pnode
numbers, and simulated-clock TIME values).

Run directly (CI does; no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_ingest.py \
        --out BENCH_results.json

Exits nonzero if the widest arm is not at least ``--min-speedup`` times
the single-shard arm's storage records/sec (default 2.0), or if fewer
than ``--min-records`` records reached the database (default 10000).
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.core.pnode import ObjectRef, TRANSIENT_VOLUME, local_of, volume_of
from repro.core.records import Attr
from repro.system import BootConfig, System

try:
    from _bench_io import merge_results
except ImportError:  # imported as part of a package-style run
    from benchmarks._bench_io import merge_results

#: Small-chunk writes per new file (duplicate-heavy INPUT traffic).
CHUNKS_PER_FILE = 2
#: Disclosed records attached to each file (records-only pass_write).
DISCLOSED_PER_FILE = 96
#: One bulk DPAPI disclosure per round (a provenance-aware application
#: checkpointing its semantic state in one call).
BURST_RECORDS = 6000


def churn_round(system: System, round_index: int, files: int) -> None:
    """One round: new files (chunked writes + DPAPI disclosure), one
    bulk disclosure burst, then a different process overwrites half of
    the previous round's files."""
    with system.process(argv=[f"churner-{round_index}"]) as proc:
        dpapi = proc.dpapi
        if round_index == 0:
            proc.mkdir("/pass/churn")
        for index in range(files):
            fd = proc.open(f"/pass/churn/r{round_index}-f{index}.dat", "w")
            chunk = bytes([65 + (index % 26)]) * 64
            for _ in range(CHUNKS_PER_FILE):
                proc.write(fd, chunk)
            disclosed = dpapi.record_many(
                fd, Attr.ANNOTATION,
                (f"r{round_index}.f{index}.k{key}"
                 for key in range(DISCLOSED_PER_FILE)))
            dpapi.pass_write(fd, records=disclosed)
            proc.close(fd)
        # The burst: one records-only pass_write disclosing the round's
        # whole semantic state against one file.  No data moves, so no
        # WAP ordering point intervenes -- the window where group
        # commit gets to choose the flush boundary.
        fd = proc.open(f"/pass/churn/r{round_index}-f0.dat", "a")
        burst = dpapi.record_many(
            fd, Attr.ANNOTATION,
            (f"r{round_index}.burst.{key}" for key in range(BURST_RECORDS)))
        dpapi.pass_write(fd, records=burst)
        proc.close(fd)
    if round_index > 0:
        with system.process(argv=[f"rewriter-{round_index}"]) as proc:
            for index in range(files // 2):
                fd = proc.open(
                    f"/pass/churn/r{round_index - 1}-f{index}.dat", "w")
                proc.write(fd, b"overwrite" * 16)
                proc.close(fd)


def _canon_ref(ref: ObjectRef) -> tuple:
    """Volume-id-free identity: pnode numbers embed the globally unique
    volume id, which differs between the two boots; the transient/PASS
    distinction plus the local counter plus the version is what must
    match."""
    transient = volume_of(ref.pnode) == TRANSIENT_VOLUME
    return (transient, local_of(ref.pnode), ref.version)


def canonical_database(system: System) -> list[tuple]:
    """Every record of every volume, in insertion order, canonicalized.

    TIME values are masked (flush boundaries legitimately shift
    simulated timestamps); everything else -- subjects, attributes,
    values, cross-references -- must be identical.
    """
    out: list[tuple] = []
    for database in system.databases():
        for record in database.all_records():
            value = record.value
            if isinstance(value, ObjectRef):
                canon_value: object = ("ref",) + _canon_ref(value)
            elif record.attr == Attr.TIME:
                canon_value = "<time>"
            else:
                canon_value = value
            out.append((_canon_ref(record.subject), record.attr,
                        canon_value))
    return out


def run_shard_arm(shards: int, rounds: int, files: int) -> dict:
    """The churn workload on one sharded-tier arm.

    Reported throughput is the *storage tier's* critical path, measured
    with real wall clocks per shard: seconds each shard spent in log
    append/flush plus Waldo drain.  With one worker per shard the
    tier's elapsed storage time is the max over shards; at ``shards=1``
    the max IS the serial total, so the two arms share a unit.  (The
    whole-pipeline elapsed time is reported too, but capture --
    observer/analyzer/distributor -- is ~65% of it and out of this
    tier's hands; Amdahl caps any full-pipeline claim regardless of
    shard count, and the GIL serializes pure-Python capture anyway.)
    """
    # Metrics off: measure the pipeline work itself.
    system = System.boot(config=BootConfig(observability=False,
                                           shards=shards))
    system.tier.enable_wall_timing()
    # Measure the pipeline, not the collector: the cyclic GC's gen-2
    # passes scan the whole live heap (the database grows throughout),
    # charging each arm a fee proportional to how *long* it runs rather
    # than how much work it does.  Every arm runs collector-free and
    # pays one explicit collection outside the timed region.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for round_index in range(rounds):
            churn_round(system, round_index, files)
        records = system.sync()
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    shard_seconds = system.tier.storage_seconds("pass")
    critical_path = max(shard_seconds)
    serial = sum(shard_seconds)
    return {
        "shards": shards,
        "records": records,
        "elapsed_s": elapsed,
        "shard_storage_seconds": shard_seconds,
        "storage_critical_path_s": critical_path,
        "storage_serial_s": serial,
        "storage_records_per_sec": (records / critical_path
                                    if critical_path else float("inf")),
        "parallel_drains": system.tier.parallel_drains,
        # Cross-shard interleaving legitimately reorders the global
        # record stream; per-subject order is a per-shard property.
        # Equality is therefore on the sorted multiset.
        "contents": sorted(canonical_database(system), key=repr),
    }


def run_sharded(rounds: int = 10, files: int = 120,
                shard_counts: tuple = (1, 2, 4)) -> dict:
    """The sharded-tier suite: same churn workload at 1/2/4 shards.

    The headline ``speedup`` is storage-tier critical-path throughput
    at the widest arm over the single-shard arm; every arm must drain
    the same records into the union of its shard databases (sorted
    multiset equality).
    """
    run_shard_arm(1, 1, files)          # warmup (discarded)
    arms = [run_shard_arm(count, rounds, files)
            for count in shard_counts]
    base = arms[0]
    for arm in arms[1:]:
        assert arm["records"] == base["records"], \
            "sharded arms drained different record counts"
        assert arm["contents"] == base["contents"], \
            (f"shards={arm['shards']} database contents differ from "
             f"shards={base['shards']}")
    widest = arms[-1]
    payload = {
        "schema": "repro-bench-ingest-sharded/1",
        "workload": "churn",
        "rounds": rounds,
        "files_per_round": files,
        "shard_counts": list(shard_counts),
        "records_total": base["records"],
        "speedup": (widest["storage_records_per_sec"]
                    / base["storage_records_per_sec"]),
    }
    for arm in arms:
        del arm["contents"]
        payload[f"shards_{arm['shards']}"] = arm
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--files", type=int, default=120,
                        help="new files per round (half get overwritten)")
    parser.add_argument("--out", default=None,
                        help="merge the result payload into this JSON file")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-records", type=int, default=10000)
    args = parser.parse_args(argv)

    result = run_sharded(rounds=args.rounds, files=args.files)
    print(f"sharded churn workload: {result['records_total']} records "
          f"over {args.rounds} rounds")
    for count in result["shard_counts"]:
        arm = result[f"shards_{count}"]
        print(f"  shards={count}: storage critical path "
              f"{arm['storage_critical_path_s']:.3f}s "
              f"(serial {arm['storage_serial_s']:.3f}s, "
              f"{arm['storage_records_per_sec']:,.0f} rec/s, "
              f"{arm['parallel_drains']} parallel drains)")
    print(f"  speedup at {result['shard_counts'][-1]} shards: "
          f"{result['speedup']:.1f}x")
    if args.out and args.out != "-":
        merge_results(args.out, "ingest_sharded", result)
        print(f"merged into {args.out}")
    if result["records_total"] < args.min_records:
        print(f"FAIL: drained {result['records_total']} records, "
              f"need >= {args.min_records}", file=sys.stderr)
        return 1
    if result["speedup"] < args.min_speedup:
        print(f"FAIL: sharded speedup {result['speedup']:.2f}x below "
              f"the {args.min_speedup}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
