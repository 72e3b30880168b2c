"""End-to-end benchmark: syscall -> sync -> fresh query -> warm query.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --workload W --trace 1 --trace-out /tmp/w.json
    python3 benchmarks/e2e/run.py --check-stability
    python3 benchmarks/e2e/run.py --smoke

Every (workload, repeat) runs in a fresh subprocess (``--child``), one
after the other, so peak RSS and heap state belong to one repeat.  A
run keeps starting repeats until their measured seconds add up to
``--seconds`` (or does exactly ``--repeats``) and reports each metric as
the median over repeats, with quartiles and the sample count.  With
``--trace 1`` the first repeat is untraced -- it is what
``trace.overhead_pct`` compares against -- and the others carry the
timing wrappers of ``trace.py``.

The metrics, their units, directions and bounds are declared once, in
``BENCHMARK.json`` at the root of the repository.  The last line of
standard output is one JSON object per workload run (see README.md).
Exit status is non-zero when any correctness check failed.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 1
SMOKE_SCALE = 0.05


def _declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the child: one repeat in this process -----------------------------------


def child(args) -> int:
    if hasattr(os, "sched_setaffinity"):
        # One thread on one core: no migrations between the two.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from harness import run_once
    result = run_once(args.workload, args.seed, args.scale, bool(args.trace),
                      args.trace_out, _PROCESS_STARTED, args.break_reference)
    print(json.dumps(result))
    return 0


def _spawn(name: str, seed: int, scale: float, traced: bool,
           trace_out, break_reference: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", name, "--seed", str(seed),
               "--scale", repr(scale)]
    if traced:
        command += ["--trace", "1"]
        if trace_out:
            command += ["--trace-out", trace_out]
    if break_reference:
        command.append("--break-reference")
    # A fixed hash seed: set and dict-of-string order, and with it the
    # heap layout, repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name}: repeat exited with status "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- the parent: repeats, medians, printing ----------------------------------


def _quartiles(values: list) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_workload(name: str, seed: int, scale: float, seconds: float,
                 repeats, traced: bool, trace_out=None,
                 break_reference: bool = False) -> dict:
    """All repeats of one workload; returns medians and the samples."""
    results = []
    if traced:
        # One untraced repeat first: what trace.overhead_pct compares
        # against.  Its seconds count towards --seconds.
        results.append(_spawn(name, seed, scale, False, None,
                              break_reference))
    samples = 0
    while (samples < repeats if repeats
           else samples == 0 or _measured(results) < seconds):
        results.append(_spawn(name, seed, scale, traced, trace_out,
                              break_reference))
        samples += 1
    plain = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    summary = {
        "workload": name, "seed": seed, "scale": scale,
        "repeats": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:10],
        "warm_queries": results[0]["warm_queries"],
        "observed": results[0]["observed"],
        "end_to_end": _samples([r["end_to_end"] for r in plain]),
        "per_layer": _samples([r["per_layer"]
                               for r in traced_runs or plain]),
    }
    if traced_runs:
        base = statistics.median(r["end_to_end"]["e2e_wall_s"]
                                 for r in plain)
        with_trace = statistics.median(r["end_to_end"]["e2e_wall_s"]
                                       for r in traced_runs)
        summary["per_layer"]["trace.overhead_pct"] = [
            100.0 * (with_trace - base) / base]
        summary["self_s"] = traced_runs[-1]["self_s"]
    _check_repeats_agree(summary, results)
    return summary


def _measured(results: list) -> float:
    return sum(r["end_to_end"]["e2e_wall_s"] for r in results)


def _samples(rows: list) -> dict:
    """[{metric: value}] -> {metric: [values]}."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def _check_repeats_agree(summary: dict, results: list) -> None:
    """Simulated time, space and every count come from single-threaded
    deterministic paths: repeats of one seed must agree exactly."""
    timed = ("_s", "_ms", "_pct", "_mib")
    exact: dict[str, set] = {}
    for result in results:
        values = {name: value for name, value in result["per_layer"].items()
                  if not name.endswith(timed)}
        for name in ("sim_elapsed_s", "prov_bytes_per_record"):
            values[name] = result["end_to_end"][name]
        for name, value in values.items():
            exact.setdefault(name, set()).add(value)
    differing = sorted(name for name, seen in exact.items() if len(seen) > 1)
    summary["attempted"] += 1
    if differing:
        summary["failed"] += 1
        summary["failures"].append(
            f"differ between repeats of one seed: {differing}")


def _fmt(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 100 else f"{value:,.1f}"


def print_summary(summary: dict, declared: dict) -> None:
    units = {m["name"]: m["unit"] for m in
             declared["end_to_end"] + declared["per_layer"]}
    print(f"\n== {summary['workload']}  seed={summary['seed']} "
          f"scale={summary['scale']} repeats={summary['repeats']} "
          f"warm_queries={summary['warm_queries']} "
          f"records={summary['observed']['records']}")
    print(f"  {'end-to-end metric':28} {'median':>14} {'q1':>14} "
          f"{'q3':>14}  n  unit")
    for name, values in summary["end_to_end"].items():
        q1, median, q3 = _quartiles(values)
        print(f"  {name:28} {_fmt(median):>14} {_fmt(q1):>14} "
              f"{_fmt(q3):>14}  {len(values)}  "
              f"{units.get(name, 'share')}")
    print(f"  {'per-layer metric':40} {'median':>16}  unit")
    for name, values in sorted(summary["per_layer"].items()):
        print(f"  {name:40} {_fmt(statistics.median(values)):>16}  "
              f"{units.get(name, '')}")
    if "self_s" in summary:
        phases = list(summary["self_s"])
        print(f"  {'self seconds by layer / phase':28}"
              + "".join(f"{phase:>10}" for phase in phases))
        for layer in summary["self_s"][phases[0]]:
            print(f"  {layer:28}" + "".join(
                f"{summary['self_s'][phase][layer]:10.4f}"
                for phase in phases))
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(summary: dict, declared: dict, traced: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    for metric in declared[section]:
        values = summary[section][metric["name"]]
        metrics[metric["name"]] = {"value": statistics.median(values),
                                   "unit": metric["unit"]}
    return json.dumps({"correct": summary["failed"] == 0,
                       "attempted": summary["attempted"],
                       "failed": summary["failed"],
                       "metrics": metrics})


# -- --check-stability --------------------------------------------------------


def _worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (<= 0: not worse)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check_stability(names, args, declared) -> int:
    """Two full sets of runs on the same code, the second after the
    first: per (workload, metric) both medians over repeats, the
    quartile spread of each run as a share of its median, and the bound.
    Fails when the second median is worse than the first by more than
    the bound.  A pair within the bound whose spread is wider than the
    bound is marked unresolved: at that noise, agreeing says little."""
    status = 0
    sets: list[dict] = []
    for _ in range(2):
        runs = {}
        for name in names:
            runs[name] = run_workload(name, args.seed, args.scale,
                                      args.seconds, args.repeats, False)
            if runs[name]["failed"]:
                print_summary(runs[name], declared)
                status = 1
        sets.append(runs)
    print(f"{'workload':15} {'metric':24} {'median 1':>12} {'median 2':>12} "
          f"{'spread 1':>9} {'spread 2':>9} {'worse by':>9} {'bound':>7}")
    for metric in declared["end_to_end"]:
        for name in names:
            medians, spreads = [], []
            for runs in sets:
                q1, median, q3 = _quartiles(
                    runs[name]["end_to_end"][metric["name"]])
                medians.append(median)
                spreads.append((q3 - q1) / median)
            worse = _worse_by(medians[0], medians[1], metric["better"])
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  UNSTABLE"
                status = 1
            elif max(spreads) > metric["bound"]:
                verdict = "  unresolved"
            print(f"{name:15} {metric['name']:24} "
                  f"{_fmt(medians[0]):>12} {_fmt(medians[1]):>12} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:9.4f} "
                  f"{metric['bound']:7.3f}{verdict}")
    return status


# -- command line --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="reaches only the input generators")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start repeats until this many measured "
                             "seconds (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many repeats instead")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="write the last traced repeat's spans here "
                             "as Chrome trace JSON")
    parser.add_argument("--check-stability", action="store_true",
                        help="two full sets on the same code must agree "
                             "within the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check, one untraced and "
                             "one traced repeat, at a twentieth of the "
                             "size")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--break-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    declared = _declaration()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"BENCHMARK.json declares {names}")
        names = [args.workload]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    traced = bool(args.trace)
    if args.smoke:
        # One untraced and one traced repeat of everything.
        args.scale, args.repeats, traced = SMOKE_SCALE, 1, True
    if args.check_stability:
        return check_stability(names, args, declared)

    status = 0
    for name in names:
        summary = run_workload(name, args.seed, args.scale, args.seconds,
                               args.repeats, traced, args.trace_out,
                               args.break_reference)
        print_summary(summary, declared)
        print(contract_line(summary, declared, traced))
        if summary["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
