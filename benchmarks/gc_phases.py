"""What the cyclic collector does in each phase of one e2e workload.

    python3 benchmarks/gc_phases.py [--workload W] [--seed N] [--scale F]

Drives the workload through capture -> sync -> fresh -> warm the way
``benchmarks/e2e/harness.py`` does (default boot, one ``gc.collect()``
before the first phase, collector at its defaults) under a
``gc.callbacks`` hook and prints, per phase of each round: wall seconds,
passes and seconds of each generation, the tracked objects at the
phase's end and their ten most common types.  Then one total row per
phase over all rounds (passes and seconds per generation, tracked
objects at the end of the phase's last round) and the collector's
seconds over the whole run.  A diagnostic, not a benchmark: it imports
``benchmarks/e2e/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "e2e"), os.path.join(HERE, "..", "src")]

from repro.system import System  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = ("capture", "sync", "fresh", "warm")


def zeroed() -> dict:
    """generation -> [passes, seconds]."""
    return {generation: [0, 0.0] for generation in range(3)}


#: generation -> [passes, seconds] within the phase being measured.
PASSES = zeroed()
#: phase -> generation -> [passes, seconds] over every round so far.
TOTALS = {phase: zeroed() for phase in PHASES}
#: phase -> tracked objects at the end of its latest round.
TRACKED = dict.fromkeys(PHASES, 0)
_started = [0.0]


def on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        _started[0] = time.perf_counter()
    else:
        entry = PASSES[info["generation"]]
        entry[0] += 1
        entry[1] += time.perf_counter() - _started[0]


def generations(passes: dict) -> str:
    return "  ".join(f"gen{generation} {count:4d} / {seconds:.3f} s"
                     for generation, (count, seconds) in passes.items())


def measured(name: str, body):
    """Run one phase under the hook, then print its line and census."""
    for entry in PASSES.values():
        entry[:] = [0, 0.0]
    gc.callbacks.append(on_gc)
    begun = time.perf_counter()
    try:
        result = body()
    finally:
        wall = time.perf_counter() - begun
        gc.callbacks.remove(on_gc)
    tracked = gc.get_objects()
    census = collections.Counter(type(obj).__name__ for obj in tracked)
    for generation, (count, seconds) in PASSES.items():
        TOTALS[name][generation][0] += count
        TOTALS[name][generation][1] += seconds
    TRACKED[name] = len(tracked)
    print(f"{name:8} {wall:7.3f} s  {generations(PASSES)}"
          f"  tracked {len(tracked):,}")
    print("         " + ", ".join(f"{kind} {count:,}"
                                  for kind, count in census.most_common(10)))
    return result


def print_totals() -> None:
    """One row per phase over all rounds, then the collector's total."""
    print("totals over all rounds:")
    for phase in PHASES:
        print(f"{phase:8}            {generations(TOTALS[phase])}"
              f"  tracked {TRACKED[phase]:,}")
    seconds = sum(seconds for passes in TOTALS.values()
                  for _, seconds in passes.values())
    print(f"collector {seconds:.3f} s over all phases")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="disclose_burst")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    system = System.boot()
    workload.setup(system)
    answers = []        # kept alive, as the harness keeps them

    def ask(queries) -> None:
        engine = system.query_engine()
        answers.extend(engine.execute(query.text) for query in queries)

    gc.collect()
    try:
        for index in range(workload.rounds):
            measured("capture", lambda: workload.capture(system, index))
            fresh = workload.fresh_queries(index)
            warm = workload.warm_queries(index)
            measured("sync", system.sync)
            measured("fresh", lambda: ask(fresh))
            measured("warm", lambda: ask(warm))
    finally:
        workload.close()
    print_totals()
    return 0


if __name__ == "__main__":
    sys.exit(main())
