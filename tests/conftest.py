"""Shared fixtures for the PASSv2 reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.analyzer import _dedup_key
from repro.core.pnode import ObjectRef
from repro.kernel.params import SimParams
from repro.pql.evaluator import Evaluator
from repro.pql.oem import OEMNode
from repro.pql.parser import parse
from repro.system import System


@pytest.fixture
def system() -> System:
    """A provenance-enabled machine with /pass (PASS) and /scratch (plain)."""
    return System.boot()


@pytest.fixture
def baseline() -> System:
    """The same machine with provenance collection off (vanilla ext3)."""
    return System.boot(provenance=False)


@pytest.fixture
def two_volume_system() -> System:
    """A machine with two PASS volumes (distributor routing tests)."""
    return System.boot(pass_volumes=("pass", "pass2"))


@pytest.fixture
def params() -> SimParams:
    return SimParams()


def write_file(system: System, path: str, data: bytes) -> None:
    """Create/overwrite a file (with parent dirs) from a throwaway process."""
    with system.process() as proc:
        parts = path.strip("/").split("/")[:-1]
        prefix = ""
        for part in parts:
            prefix += "/" + part
            if not proc.exists(prefix):
                proc.mkdir(prefix)
        fd = proc.open(path, "w")
        proc.write(fd, data)
        proc.close(fd)


def read_file(system: System, path: str) -> bytes:
    """Read a whole file from a throwaway process."""
    with system.process() as proc:
        fd = proc.open(path, "r")
        data = proc.read(fd)
        proc.close(fd)
    return data


def run_keys(analyzer) -> list:
    """The keys an analyzer holds in its run groups, each expanded to
    the ``_dedup_key`` tuple ``_seen`` would hold for it; every value
    is asserted to be of its group's exact class."""
    keys = []
    for version, groups in analyzer._runs.items():
        subject = ObjectRef(version >> 32, version & 0xFFFFFFFF)
        for (attr, cls), values in groups.items():
            assert values and all(type(value) is cls for value in values)
            keys += [_dedup_key(subject, attr, value) for value in values]
    return keys


def held_keys(analyzer) -> set:
    """Every dedup key an analyzer holds, flat or grouped, as one set of
    ``_dedup_key`` tuples; asserts that no key is held twice and that
    ``seen_keys`` counts them all."""
    grouped = run_keys(analyzer)
    held = analyzer._seen.union(grouped)
    assert len(held) == len(analyzer._seen) + len(grouped)
    assert analyzer._obs_counters()["seen_keys"] == len(held)
    return held


def held_count(analyzer) -> int:
    """How many dedup keys an analyzer holds, without expanding them."""
    return len(analyzer._seen) + sum(
        len(values) for groups in analyzer._runs.values()
        for values in groups.values())


def reference_rows(engine, text: str) -> list:
    """``text`` answered over ``engine``'s graph by the evaluator the
    planner is tested against: no catalog, so member scans and plain
    traversals only -- and a fresh parse, no plan cache, no lint
    pre-pass, no engine state."""
    return Evaluator(engine.graph).execute(parse(text))


def reference_refs(engine, text: str) -> list:
    """:func:`reference_rows` with nodes as ObjectRefs, the form
    :func:`planned_refs` returns."""
    return [as_refs(row) for row in reference_rows(engine, text)]


def planned_refs(engine, text: str) -> list:
    """``engine.execute(text)`` with nodes as ObjectRefs."""
    return [as_refs(row) for row in engine.execute(text)]


def as_refs(row):
    """One result row with every node replaced by its ObjectRef."""
    if isinstance(row, tuple):
        return tuple(as_refs(cell) for cell in row)
    return row.ref if isinstance(row, OEMNode) else row


def graph_fingerprint(graph) -> dict:
    """Everything a PQL query can observe of one OEM graph, in a form
    comparable across construction paths (incremental vs batch).

    Atom values and edge lists compare exactly -- both paths append in
    arrival order with identical dedup.  Atom values compare raw, so
    the representation is part of it: a tuple for one value, a list
    from the second on, never a one-element list (asserted here).
    Member lists compare as sorted ref lists, because ``build()``
    classifies in node insertion order while ``apply()`` classifies at
    arrival time.  The name and version indexes compare raw under the
    node-or-list rule (a node's ref for one entry, sorted refs from two
    on, never a one-element list: asserted here).
    """
    def index_shape(index: dict) -> dict:
        assert all(type(entry) is not list or len(entry) > 1
                   for entry in index.values()), index
        return {key: sorted(node.ref for node in entry)
                if type(entry) is list else entry.ref
                for key, entry in index.items()}

    nodes = {}
    for node in graph.nodes():
        assert all(type(values) is tuple and len(values) == 1
                   or type(values) is list and len(values) > 1
                   for values in node.atoms.values()), node.atoms
        nodes[node.ref] = {
            "atoms": dict(node.atoms),
            "edges": {label: [t.ref for t in targets]
                      for label, targets in node.edges.items() if targets},
            "redges": {label: [s.ref for s in sources]
                       for label, sources in node.redges.items() if sources},
        }
    return {
        "nodes": nodes,
        "members": {name: sorted(n.ref for n in graph.members(name))
                    for name in graph.member_names()},
        "by_pnode": index_shape(graph._by_pnode),
        "by_name": index_shape(graph._by_name),
        "atom_labels": graph.atom_labels(),
        "edge_labels": graph.edge_labels(),
    }
