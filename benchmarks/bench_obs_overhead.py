"""What does passview cost?  Wall-clock overhead of the obs stack.

The committed budget (docs/OBSERVABILITY.md): with the full export
stack enabled -- metrics + tracing + event journal, *including* the
exporter renders (Chrome trace JSON, Prometheus text, journal JSONL)
-- the batched ingest path may cost at most 5% over the default boot;
with the journal disabled (the default), the passview seams are one
attribute test each and must stay in the noise.

Three arms run the same write-heavy batched-ingest workload:

* ``off``      -- ``observability=False``: metrics, tracing, and the
  journal all disabled.  This arm *includes* every passview seam (the
  disabled ``obs.event`` branches), so its distance from the default
  arm bounds the disabled-path cost.
* ``default``  -- the shipped boot: metrics on, journal off.
* ``full``     -- metrics + tracing + journal, with all three
  exporters rendered inside the timed region.

Each repeat runs the three arms back to back so a pair's elapsed ratio
cancels clock/cache drift; the *median* pair ratio is the headline
number.

Run directly (CI does; no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --out obs-overhead.json

Exits nonzero when the enabled overhead exceeds ``--max-overhead-pct``
(default 5, the budget) or when the full arm produced no spans /
journal events (the stack silently off would make the gate vacuous).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.obs.export import chrome_trace_json, prometheus_text
from repro.system import BootConfig, System

OFF = BootConfig(observability=False)
DEFAULT = BootConfig()
FULL = BootConfig(tracing=True, journal=True)

#: Chunked writes per file (duplicate-heavy INPUT traffic that keeps
#: the analyzer and the group-commit machinery busy).
CHUNKS_PER_FILE = 4

#: Queries per round: exercises the plan cache (first compile, then
#: hits) and the slow-query seam in ``QueryEngine.execute``.
QUERIES = (
    "select F from Provenance.file as F",
    "select P from Provenance.proc as P",
)


def run_arm(config: BootConfig, rounds: int, files: int) -> dict:
    """The workload on one arm: chunked writes, sync, queries."""
    system = System.boot(config=config)
    # Collector off while timed, one collection after: gen-2 passes scan
    # the growing database, a fee per second an arm runs, not per record.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        records = 0
        for round_index in range(rounds):
            with system.process(argv=[f"writer-{round_index}"]) as proc:
                for index in range(files):
                    fd = proc.open(f"/pass/r{round_index}-f{index}", "w")
                    chunk = bytes([65 + (index % 26)]) * 64
                    for _ in range(CHUNKS_PER_FILE):
                        proc.write(fd, chunk)
                    proc.close(fd)
            records += system.sync()
            for text in QUERIES:
                system.query(text)
        exported_bytes = 0
        if config.journal:
            # The budget covers the export half too: render all three
            # formats inside the timed region.
            exported_bytes += len(chrome_trace_json(system.trace()))
            exported_bytes += len(prometheus_text(system.stats()))
            exported_bytes += len(system.obs.journal.to_jsonl())
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return {
        "records": records,
        "elapsed_s": elapsed,
        "records_per_sec": records / elapsed if elapsed else float("inf"),
        "exported_bytes": exported_bytes,
        "spans": len(system.trace()) if config.tracing else 0,
        "journal_events": (len(system.journal_events())
                           if config.journal else 0),
    }


def run(rounds: int = 10, files: int = 220, repeats: int = 3) -> dict:
    """All three arms; returns the ``--out`` payload.

    ``overhead_pct`` is the median full-vs-default pair overhead (the
    gated budget); ``disabled_overhead_pct`` is the median
    default-vs-off pair overhead (report-only: the always-on metrics
    stack plus every *disabled* passview branch).
    """
    # Warmup triple (discarded): first runs after unrelated load see
    # cold caches and a throttled clock.
    run_arm(OFF, 1, files)
    run_arm(DEFAULT, 1, files)
    run_arm(FULL, 1, files)
    triples = []
    for _ in range(max(1, repeats)):
        off = run_arm(OFF, rounds, files)
        default = run_arm(DEFAULT, rounds, files)
        full = run_arm(FULL, rounds, files)
        assert off["records"] == default["records"] == full["records"], \
            "arms drained different record counts"
        enabled_pct = 100.0 * (full["elapsed_s"] / default["elapsed_s"] - 1)
        disabled_pct = 100.0 * (default["elapsed_s"] / off["elapsed_s"] - 1)
        triples.append((enabled_pct, disabled_pct, off, default, full))
    triples.sort(key=lambda triple: triple[0])
    enabled_pct, _, off, default, full = triples[len(triples) // 2]
    disabled_pct = sorted(t[1] for t in triples)[len(triples) // 2]
    return {
        "schema": "repro-bench-obs/1",
        "workload": "batched-ingest+query",
        "rounds": rounds,
        "files_per_round": files,
        "repeats": max(1, repeats),
        "chunks_per_file": CHUNKS_PER_FILE,
        "records_total": full["records"],
        "off": off,
        "default": default,
        "full": full,
        "overhead_pct": enabled_pct,
        "disabled_overhead_pct": disabled_pct,
    }


def test_obs_overhead_stack_is_live():
    """Pytest entry point (small scale): the full arm must actually
    collect spans and journal events, and every arm must agree on the
    record count.  The 5% budget itself is gated in CI at full scale,
    not here -- a two-round run is too noisy for a percent assertion.
    """
    result = run(rounds=2, files=24, repeats=1)
    assert result["records_total"] > 0
    assert result["full"]["spans"] > 0
    assert result["full"]["journal_events"] > 0
    assert result["full"]["exported_bytes"] > 0
    assert result["off"]["spans"] == result["off"]["journal_events"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--files", type=int, default=220,
                        help="files written per round")
    parser.add_argument("--repeats", type=int, default=3,
                        help="back-to-back arm triples; the median "
                             "pair overhead is reported")
    parser.add_argument("--out", default=None,
                        help="write the result payload to this JSON file")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0,
                        help="enabled-overhead budget (default "
                             "%(default)s, the committed budget)")
    args = parser.parse_args(argv)

    result = run(rounds=args.rounds, files=args.files,
                 repeats=args.repeats)
    print(f"obs overhead: {result['records_total']} records over "
          f"{args.rounds} rounds")
    for arm in ("off", "default", "full"):
        stats = result[arm]
        extra = ""
        if arm == "full":
            extra = (f"  ({stats['spans']} spans, "
                     f"{stats['journal_events']} journal events, "
                     f"{stats['exported_bytes']} exported bytes)")
        print(f"  {arm:8s}{stats['elapsed_s']:>8.3f}s "
              f"({stats['records_per_sec']:,.0f} rec/s){extra}")
    print(f"  enabled overhead (full vs default): "
          f"{result['overhead_pct']:+.2f}%")
    print(f"  disabled overhead (default vs off): "
          f"{result['disabled_overhead_pct']:+.2f}%")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if result["full"]["spans"] == 0 or result["full"]["journal_events"] == 0:
        print("FAIL: full arm collected no spans/journal events; the "
              "overhead gate would be vacuous", file=sys.stderr)
        return 1
    if result["overhead_pct"] > args.max_overhead_pct:
        print(f"FAIL: enabled overhead {result['overhead_pct']:+.2f}% "
              f"exceeds the {args.max_overhead_pct}% budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
