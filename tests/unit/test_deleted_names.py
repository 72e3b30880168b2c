"""Names that stay deleted: one table of pattern -> where it may not appear.

Each row keeps a deleted option, layer or entry point from coming back by
copy-paste.  A row is a regular expression (``grep -E`` syntax), whether
it matches whole words only (``grep -w``), and the paths it may not
appear in: a directory is searched recursively, ``benchmarks/*.py`` means
the top-level benchmark scripts only.  This file is never searched, so
the table cannot match itself.
"""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SELF = os.path.abspath(__file__)

SRC = ("src/repro",)
SRC_BENCH = ("src/repro", "benchmarks/*.py")
SRC_TESTS_BENCH = ("src/repro", "tests", "benchmarks/*.py")

#: (label, pattern, whole words only, paths, why it stays deleted)
DELETED = [
    ("database-index",
     r"_by_xref|_max_version|_unsized|def find_by_name|def referencing",
     False, ("src/repro/storage",),
     "the live OEM graph is the one in-memory index of provenance"),
    ("batching-knob", r"batching", True, SRC_BENCH,
     "one ingest path, no knob for it"),
    ("shards-threads",
     r"shards|shard_key|shard_logs|shard_of|ThreadPoolExecutor|threading"
     r"|thread_time",
     True, SRC,
     "one storage pipeline per volume, drained on the calling thread"),
    ("dynamic-import", r"importlib|__import__", True, SRC,
     "imports are static, so the per-module import rules see them all"),
    ("whole-program-lint",
     r"repro\.lint\.(callgraph|flowcheck)|lint: disable=|--graph",
     False, SRC_TESTS_BENCH,
     "one per-module lint pass: no call graph, suppressions or export"),
    ("second-ledger",
     r"optimize=|BENCH_results|merge_results|compare_bench",
     False, ("src/repro", "benchmarks/*.py", "tests", ".github"),
     "one benchmark ledger, one evaluator per engine"),
    ("per-row-evaluator",
     r"_binder|plan_log|def _(values|truth|compare|arith|call|in_query"
     r"|select_values|path_values|path_nodes|order_key|aggregate_over"
     r"|expand_bindings|pushdown_candidates|apply_step|apply_step_fast"
     r"|follow|execute)\(|def plan_binding|_equality_name_filters",
     False, ("src/repro/pql",),
     "each shape compiles once: no AST rebinding, no per-row dispatch"),
    ("second-splice-loop",
     r"def (load_rows|_classify|_live_node|_apply_identity"
     r"|_add_identity_atom|_note_atom_label|atom|out|rin)\(",
     False, ("src/repro/pql",),
     "one splice loop into the OEM graph, no test-only node accessors"),
    ("csr-snapshot",
     r"CSRSnapshot|_csr_pending|VIEW_MAX_PENDING|max_pending"
     r"|def (_drain|absorb|arcs|bfs|cached_size|execute_refs)\(",
     False, ("src/repro/pql",),
     "closures walk the live graph through one query entry point"),
    ("hot-triples", r"HOT_TRIPLES|_by_attr|self\._identity", False, SRC,
     "no hot-triple LRU, attribute index or identity replay list"),
    ("segment-archive",
     r"SegmentArchive|CompactionPolicy|CompactedExtent|on_segment_closed"
     r"|take_closed|fail_before_data_write",
     False, SRC_TESTS_BENCH,
     "Waldo drains the log and keeps nothing behind"),
    ("crash-point", r"CrashPoint", True, SRC_TESTS_BENCH,
     "one crash hook at the WAP window (lasagna.write.pre_data)"),
    ("beyond-paper-apps",
     r"ProvenanceInterpreter|CompositeActor|workflow_to_dict"
     r"|workflow_from_dict",
     True, SRC_TESTS_BENCH,
     "the section 6.5 interpreter and Kepler composites/serialization "
     "are not part of the reproduction"),
    ("dead-entry-points", r"syscalls_for|assigned_volume", True,
     SRC_TESTS_BENCH,
     "nothing called them; the distributor's _assigned is read directly"),
    ("gauges", r"set_gauge|_gauges|\"gauges\"", False, SRC_TESTS_BENCH,
     "nothing sets a gauge: snapshots hold counters and histograms"),
    ("snapshot-rollups",
     r"obs\.rollup|journal_rollup|merge_summaries|\brollup\(",
     False, SRC_TESTS_BENCH,
     "one machine, one snapshot: there is no multi-machine merge"),
    ("profile-table", r"profile_table", True, SRC_TESTS_BENCH,
     "repro profile prints collapsed stacks only"),
    ("slow-query-copy", r"_slow_queries|SLOW_QUERY_CAPACITY|slow_queries",
     True, SRC_TESTS_BENCH,
     "the journal's one ring holds every pql.slow_query event"),
    ("bench-command", r"BENCH_SCHEMA|cmd_bench|repro-bench/", False,
     SRC_TESTS_BENCH,
     "the paper benches are Table 2's one path"),
    ("inspect-command", r"cmd_inspect", True, SRC_TESTS_BENCH,
     "repro stats reports the same component counters"),
    ("dot-export", r"to_dot|_interesting_outputs", True, SRC_TESTS_BENCH,
     "no Graphviz export: demo --tree is the rendered ancestry"),
    ("layer-counters", r"layer_counters|layer_metrics", True,
     SRC_TESTS_BENCH,
     "workload results carry no observability snapshot"),
    ("slo-flags", r"--max-p50|--max-p99|--max-dropped-spans|max_p50"
     r"|max_p99",
     False, ("src/repro", "benchmarks/*.py", ".github"),
     "SLOPolicy's defaults are the one declaration of every limit; "
     "test_cli.py checks that the CLI rejects the flags"),
]

#: (label, pattern, paths, the one number of matching lines allowed)
COUNTED = [
    ("one-gc-call", r"gc\.(disable|freeze|set_threshold|set_debug)", SRC, 1,
     "the OEM splice loop pauses the collector; heap wins come from "
     "data layout, not from tuning the GC"),
    ("one-versioned-mint", re.escape("ObjectRef(self.pnode, self.version)"),
     SRC, 1, "one ObjectRef mint for objects with a version"),
]


def _files(paths):
    for path in paths:
        for root in sorted(glob.glob(os.path.join(ROOT, path))):
            if os.path.isfile(root):
                yield root
                continue
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                for filename in sorted(filenames):
                    yield os.path.join(dirpath, filename)


def matches(pattern, words, paths):
    """``grep -rn[w]E pattern paths`` as ``path:line: text`` strings."""
    if words:
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    regex = re.compile(pattern)
    found = []
    for path in _files(paths):
        if os.path.abspath(path) == SELF:
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except UnicodeDecodeError:
            continue
        for number, line in enumerate(lines, 1):
            if regex.search(line):
                found.append(f"{os.path.relpath(path, ROOT)}:{number}: "
                             f"{line.strip()}")
    return found


@pytest.mark.parametrize("label,pattern,words,paths,why", DELETED,
                         ids=[row[0] for row in DELETED])
def test_name_stays_deleted(label, pattern, words, paths, why):
    assert matches(pattern, words, paths) == [], why


@pytest.mark.parametrize("label,pattern,paths,allowed,why", COUNTED,
                         ids=[row[0] for row in COUNTED])
def test_exact_count(label, pattern, paths, allowed, why):
    assert len(matches(pattern, False, paths)) == allowed, why

