"""Smoke test of the end-to-end benchmark.

Collected only when pytest is pointed at this directory (``testpaths``
in pyproject.toml is ``tests``), so the tier-1 run does not pay for it::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _smoke(*extra):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *extra],
        stdout=subprocess.PIPE, text=True, timeout=120, check=False)


def _contract_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_smoke_runs_every_workload_with_every_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    done = _smoke()
    assert done.returncode == 0, done.stdout[-2000:]
    lines = _contract_lines(done.stdout)
    assert len(lines) == len(declared["workloads"])
    per_layer = {metric["name"] for metric in declared["per_layer"]}
    for line in lines:
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] > 0
        assert set(line["metrics"]) == per_layer
        coverage = line["metrics"]["trace.coverage_pct"]["value"]
        assert abs(coverage - 100.0) <= 2.0
    for metric in declared["end_to_end"]:
        assert f"  {metric['name']} " in done.stdout


def test_a_wrong_reference_fails_the_command():
    done = _smoke("--workload", "query_scale", "--break-reference")
    assert done.returncode != 0
    assert "FAILED" in done.stdout
    assert not all(line["correct"] for line in _contract_lines(done.stdout))
