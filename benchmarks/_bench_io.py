"""Shared BENCH_results.json plumbing for the benchmark scripts.

One results file holds every benchmark's payload::

    {"schema": "repro-bench-suite/1",
     "suites": {"incremental_query": {...},  # repro-bench-incremental/1
                "obs_overhead": {...},       # repro-bench-obs/1
                "workloads": {...}}}         # repro-bench/1

``repro bench`` and each benchmark's ``--out`` all go through
:func:`merge_results`, so running the benchmarks in any order converges
on the same document.
"""

from __future__ import annotations

import json
import os

SUITE_SCHEMA = "repro-bench-suite/1"


def merge_results(path: str, name: str, payload: dict) -> dict:
    """Merge one benchmark payload into the results file at ``path``.

    Existing suite entries under other names survive; a file that is
    not a suite document is replaced by a fresh one.  Returns the
    merged document (also written to ``path``).
    """
    document: dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            document = {}
    if not (isinstance(document, dict)
            and isinstance(document.get("suites"), dict)):
        document = {"suites": {}}
    document["schema"] = SUITE_SCHEMA
    document["suites"][name] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
