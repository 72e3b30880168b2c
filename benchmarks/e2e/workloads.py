"""The four benchmark workloads: seeded inputs, measured capture, query
mixes, and the reference answers the queries are checked against.

Each workload is driven by :mod:`harness` through the same four phases
(capture -> ``System.sync()`` -> fresh query pass -> warm queries), once
for the one-shot workloads and once per round for ``live_mixed``.
``--seed`` reaches only the code in this file: the program under test
sees the generated inputs, never the seed.

Why these four (the README has the measured shares):

* ``capture_mix``    -- syscall-driven capture does the work;
* ``disclose_burst`` -- bulk DPAPI disclosure bypasses the syscall and
  data path and loads analyzer / log / Waldo / database;
* ``query_scale``    -- ``pql.*`` does the work, over a graph with more
  closure roots than the ancestry-view LRU holds;
* ``live_mixed``     -- the same ``pql`` and ``storage`` layers used the
  other way round, writes beside reads on one live engine.

Sizes are the ``--scale 1.0`` sizes; ``scale`` multiplies the amount of
captured work and the number of warm queries.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType
from repro.system import System
from repro.workloads import ALL_WORKLOADS

#: Query kinds, the names of the ``pql.engine.<kind>_p50_ms`` metrics.
KINDS = ("point", "closure", "descendants", "name_traverse",
         "range_recent", "range_window")

_FILE = "Provenance.file"


@dataclass(frozen=True)
class Query:
    """One PQL query and how to compute its reference answer."""

    kind: str
    text: str
    #: Reference answer (a collection of ObjectRefs), given the
    #: workload's reference object; called after the measured region.
    expect: Callable[[object], object]


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def _layered(start, neighbours, minimum: int, maximum: int) -> set:
    """Nodes whose shortest distance from ``start`` lies in
    [minimum, maximum] -- PQL's ``edge{min,max}`` from one node."""
    seen = {start}
    layer = [start]
    found = {start} if minimum == 0 else set()
    for depth in range(1, maximum + 1):
        next_layer = []
        for node in layer:
            for other in neighbours(node):
                if other not in seen:
                    seen.add(other)
                    next_layer.append(other)
        if depth >= minimum:
            found.update(next_layer)
        layer = next_layer
    return found


def _closure(start, neighbours) -> set:
    """``edge*`` from one node: everything reachable, start included."""
    seen = {start}
    stack = [start]
    while stack:
        for other in neighbours(stack.pop()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


# -- reference over the stored records ---------------------------------------


class RecordReference:
    """Reference answers computed from ``database.all_records()`` with
    plain dictionaries -- the benchmark's own reading of the records,
    sharing no code with ``repro.pql``.

    Mirrors the graph model of docs/PQL.md: one node per (pnode,
    version) seen as a subject or a cross-reference; NAME and TYPE are
    identity attributes shared by every version of a pnode.
    """

    _FRAMING = (Attr.BEGINTXN, Attr.ENDTXN)

    def __init__(self, system: System):
        self.versions: dict[int, set] = defaultdict(set)
        self.names: dict[str, list] = defaultdict(list)
        self.types: dict[int, str] = {}
        self.atoms: dict[tuple, list] = defaultdict(list)
        self.out: dict[tuple, list] = defaultdict(list)
        self.rin: dict[tuple, list] = defaultdict(list)
        for database in system.databases():
            for record in database.all_records():
                self._add(record)

    def _add(self, record) -> None:
        subject, attr, value = record.subject, record.attr, record.value
        if attr in self._FRAMING:
            return
        self.versions[subject.pnode].add(subject)
        if isinstance(value, ObjectRef):
            self.versions[value.pnode].add(value)
            self.out[attr, subject].append(value)
            self.rin[attr, value].append(subject)
        elif attr == Attr.NAME:
            self.names[value].append(subject.pnode)
        elif attr == Attr.TYPE:
            self.types.setdefault(subject.pnode, value)
        elif attr == Attr.ANNOTATION:
            self.atoms[attr, value].append(subject)

    def _is_file(self, pnode: int) -> bool:
        return self.types.get(pnode) == ObjType.FILE

    def files_named(self, name: str) -> set:
        """Every version of every FILE object carrying ``name``."""
        return {ref for pnode in self.names.get(name, ())
                if self._is_file(pnode) for ref in self.versions[pnode]}

    def files_with(self, attr: str, value) -> set:
        return {ref for ref in self.atoms.get((attr, value), ())
                if self._is_file(ref.pnode)}

    def closure(self, roots, attr: str) -> set:
        found = set()
        for root in roots:
            found |= _closure(root, lambda ref: self.out.get((attr, ref), ()))
        return found

    def reverse_within(self, roots, attr: str, minimum: int,
                       maximum: int) -> set:
        found = set()
        for root in roots:
            found |= _layered(root,
                              lambda ref: self.rin.get((attr, ref), ()),
                              minimum, maximum)
        return found


def _name_lookup(path: str) -> Query:
    return Query("point",
                 f'select F from {_FILE} as F where F.name = "{path}"',
                 lambda ref: ref.files_named(path))


def _ancestry_of_name(path: str) -> Query:
    return Query("closure",
                 f'select A from {_FILE} as F, F.input* as A '
                 f'where F.name = "{path}"',
                 lambda ref: ref.closure(ref.files_named(path), Attr.INPUT))


def _descendants_of_name(path: str) -> Query:
    return Query("descendants",
                 f'select D from {_FILE} as F, F.^input{{1,3}} as D '
                 f'where F.name = "{path}"',
                 lambda ref: ref.reverse_within(ref.files_named(path),
                                                Attr.INPUT, 1, 3))


class Workload:
    """What :mod:`harness` drives.  ``capture`` is measured;
    ``__init__`` (input generation) and ``setup`` are not."""

    name = ""
    #: capture -> sync -> fresh -> warm cycles in one run.
    rounds = 1

    def setup(self, system: System) -> None:
        """Unmeasured set-up on the booted machine."""

    def capture(self, system: System, round_index: int) -> None:
        raise NotImplementedError

    def fresh_queries(self, round_index: int) -> list[Query]:
        """One query of every kind in the mix, on the new data."""
        raise NotImplementedError

    def warm_queries(self, round_index: int) -> list[Query]:
        raise NotImplementedError

    def reference(self, system: System):
        """What every ``Query.expect`` of this workload is called with."""
        return RecordReference(system)

    def close(self) -> None:
        """Release what ``setup`` opened."""


# -- capture_mix --------------------------------------------------------------


class CaptureMix(Workload):
    """The paper's five section-7 workloads back to back on one machine,
    then name lookups, ancestry of build outputs and descendants of
    sources.  Every record comes from an intercepted system call."""

    name = "capture_mix"
    #: Scale handed to each paper workload at ``--scale 1.0``.
    PAPER_SCALE = 2.2
    WARM_QUERIES = 1000
    #: Postmark's seed decides how many files it creates, appends to and
    #: deletes -- how much work the run is, a quarter of the simulated
    #: time -- so it stays fixed and every ``--seed`` does the same
    #: amount of it.  The other four take their seeds from ``--seed``.
    POSTMARK_SEED = 42

    def __init__(self, seed: int, scale: float):
        self.rng = random.Random(seed)
        self.warm_count = _scaled(self.WARM_QUERIES, scale, 60)
        self.paper = []
        for cls in ALL_WORKLOADS:
            slug = cls.__name__.removesuffix("Workload").lower()
            paper_seed = self.rng.randrange(1 << 30)
            if slug == "postmark":
                paper_seed = self.POSTMARK_SEED
            self.paper.append((cls(scale=self.PAPER_SCALE * scale,
                                   seed=paper_seed), f"/pass/{slug}"))
        self.stats: dict[str, dict] = {}

    def setup(self, system: System) -> None:
        with system.process(argv=["mkdir"]) as proc:
            for _, root in self.paper:
                proc.mkdir(root)
        for workload, root in self.paper:
            workload.setup(system, root)

    def capture(self, system: System, round_index: int) -> None:
        for workload, root in self.paper:
            self.stats[root] = workload.run(system, root)

    @functools.cached_property
    def _targets(self) -> dict[str, list[str]]:
        """Paths the captured programs read and wrote, from the counts
        the programs themselves reported (so: only after capture)."""
        compiled = self.stats["/pass/compile"]
        patched = self.stats["/pass/mercurial"]
        objects = [f"/pass/compile/obj/file{index}.o"
                   for index in range(compiled["files"])]
        sources = [f"/pass/compile/src/file{index}.c"
                   for index in range(compiled["files"])]
        headers = [f"/pass/compile/include/header{index}.h"
                   for index in range(compiled["headers"])]
        tree = [f"/pass/mercurial/hgtree/f{index}"
                for index in range(patched["files"])]
        return {"objects": objects, "sources": sources, "headers": headers,
                "tree": tree, "image": ["/pass/compile/vmlinux"]}

    def fresh_queries(self, round_index: int) -> list[Query]:
        targets = self._targets
        return [_name_lookup(targets["objects"][0]),
                _ancestry_of_name(targets["image"][0]),
                _descendants_of_name(targets["headers"][0])]

    def warm_queries(self, round_index: int) -> list[Query]:
        targets = self._targets
        pick = self.rng.choice
        named = targets["objects"] + targets["sources"] + targets["tree"]
        built = targets["objects"] + targets["tree"]
        queries = []
        for index in range(self.warm_count):
            draw = index % 10
            if draw < 4:
                queries.append(_name_lookup(pick(named)))
            elif draw < 7:
                # Mostly per-unit ancestry; one in fifty of all queries
                # asks for the linked image, whose closure spans the
                # whole build.
                pool = targets["image"] if index % 50 == 4 else built
                queries.append(_ancestry_of_name(pick(pool)))
            else:
                pool = (targets["headers"] if index % 20 == 7
                        else targets["sources"])
                queries.append(_descendants_of_name(pick(pool)))
        self.rng.shuffle(queries)
        return queries


# -- disclose_burst -----------------------------------------------------------


class DiscloseBurst(Workload):
    """Record-dense churn: chunked writes, 96 disclosed annotations per
    file, one bulk ``pass_write`` burst per round, and a second process
    overwriting half of the previous round's files.  (The pattern of
    ``benchmarks/bench_ingest.py``, with seeded annotation values.)"""

    name = "disclose_burst"
    CHURN_ROUNDS = 22
    FILES_PER_ROUND = 120
    CHUNKS_PER_FILE = 2
    DISCLOSED_PER_FILE = 96
    BURST_RECORDS = 6000
    WARM_QUERIES = 1000

    def __init__(self, seed: int, scale: float):
        self.rng = random.Random(seed)
        self.churn_rounds = _scaled(self.CHURN_ROUNDS, scale, 2)
        self.warm_count = _scaled(self.WARM_QUERIES, scale, 60)
        #: Seeded token: annotation values differ from seed to seed.
        self.token = f"{self.rng.getrandbits(32):08x}"
        #: Seeded payload sizes for the overwrites (one to two pages):
        #: the data volume, and with it simulated time, follows the seed
        #: -- by a few hundredths of a percent, the range is narrow.
        self.overwrites = [
            [b"overwrite" * self.rng.randint(384, 640)
             for _ in range(self.FILES_PER_ROUND // 2)]
            for _ in range(self.churn_rounds)]

    def setup(self, system: System) -> None:
        with system.process(argv=["mkdir"]) as proc:
            proc.mkdir("/pass/churn")

    def _path(self, round_index: int, index: int) -> str:
        return f"/pass/churn/r{round_index}-f{index}.dat"

    def _annotation(self, round_index: int, index: int, key: int) -> str:
        return f"{self.token}.r{round_index}.f{index}.k{key}"

    def capture(self, system: System, round_index: int) -> None:
        for churn_round in range(self.churn_rounds):
            self._churn(system, churn_round)

    def _churn(self, system: System, churn_round: int) -> None:
        with system.process(argv=[f"churner-{churn_round}"]) as proc:
            dpapi = proc.dpapi
            for index in range(self.FILES_PER_ROUND):
                fd = proc.open(self._path(churn_round, index), "w")
                chunk = bytes([65 + (index % 26)]) * 64
                for _ in range(self.CHUNKS_PER_FILE):
                    proc.write(fd, chunk)
                disclosed = dpapi.record_many(
                    fd, Attr.ANNOTATION,
                    (self._annotation(churn_round, index, key)
                     for key in range(self.DISCLOSED_PER_FILE)))
                dpapi.pass_write(fd, records=disclosed)
                proc.close(fd)
            # One records-only pass_write disclosing the round's whole
            # semantic state: no data moves, so no WAP ordering point
            # intervenes and group commit chooses the flush boundary.
            fd = proc.open(self._path(churn_round, 0), "a")
            burst = dpapi.record_many(
                fd, Attr.ANNOTATION,
                (f"{self.token}.r{churn_round}.burst.{key}"
                 for key in range(self.BURST_RECORDS)))
            dpapi.pass_write(fd, records=burst)
            proc.close(fd)
        if churn_round > 0:
            with system.process(argv=[f"rewriter-{churn_round}"]) as proc:
                for index, payload in enumerate(self.overwrites[churn_round]):
                    fd = proc.open(self._path(churn_round - 1, index), "w")
                    proc.write(fd, payload)
                    proc.close(fd)

    def _by_annotation(self, value: str) -> Query:
        return Query("point",
                     f'select F from {_FILE} as F '
                     f'where F.annotation = "{value}"',
                     lambda ref: ref.files_with(Attr.ANNOTATION, value))

    def _version_chain(self, path: str) -> Query:
        return Query("closure",
                     f'select V from {_FILE} as F, F.prev_version* as V '
                     f'where F.name = "{path}"',
                     lambda ref: ref.closure(ref.files_named(path),
                                             Attr.PREV_VERSION))

    def fresh_queries(self, round_index: int) -> list[Query]:
        return [_name_lookup(self._path(0, 1)),
                self._by_annotation(self._annotation(0, 1, 0)),
                self._version_chain(self._path(0, 0))]

    def warm_queries(self, round_index: int) -> list[Query]:
        randrange = self.rng.randrange
        queries = []
        for index in range(self.warm_count):
            churn_round = randrange(self.churn_rounds)
            draw = index % 5
            if draw < 2:
                queries.append(_name_lookup(
                    self._path(churn_round, randrange(self.FILES_PER_ROUND))))
            elif draw < 4:
                queries.append(self._by_annotation(self._annotation(
                    churn_round, randrange(self.FILES_PER_ROUND),
                    randrange(self.DISCLOSED_PER_FILE))))
            else:
                # The overwritten half of the files has version chains.
                queries.append(self._version_chain(self._path(
                    churn_round, randrange(self.FILES_PER_ROUND // 2))))
        self.rng.shuffle(queries)
        return queries


# -- the application-level build DAG -----------------------------------------


class BuildDag:
    """A build-like DAG the application discloses through ``pass_mkobj``
    / ``pass_write``, and the generator's own node and edge lists.

    Step ``i`` is a (source, process, output) group.  Steps with the
    same ``i % chains`` form one pipeline: each process reads its
    source, ``FAN`` shared sources from anywhere earlier, and the
    outputs of the previous ``BACK_LINKS`` steps of its own chain.
    Sources are leaves, so a chain tail's ``input*`` closure covers its
    chain and the shared sources it touched.  A *snapshot* is a real
    file on the PASS volume whose disclosed ``input`` is a chain's
    newest output; because the application writes it, the kernel adds
    the application process as an input of the file (section 5.2), and
    the reference below says so too.

    Nodes are numbered in creation order, so "the graph as of round r"
    is a prefix of the node list.
    """

    FAN = 4
    BACK_LINKS = 2
    BUILDER = 0          # node number of the disclosing process

    def __init__(self, rng: random.Random, steps: int, chains: int):
        self.rng = rng
        self.chains = chains
        self.token = f"{rng.getrandbits(32):08x}"
        self.kinds: list[str] = ["builder"]
        self.names: list[str] = ["builder"]
        self.md5: list = [None]
        self.mtime: list = [None]
        self.inputs: list[list[int]] = [[]]
        self.refs: list = [None]          # filled as the DAG is disclosed
        self.sources: list[int] = []      # node numbers, per step
        self.outputs: list[int] = []
        self.snapshots: list[int] = []
        #: snapshot node -> bytes of file data (seeded, two to three
        #: pages: simulated time follows the seed, but narrowly).
        self.snapshot_bytes: dict[int, int] = {}
        self.steps = 0
        self._rin: list[list[int]] = [[]]
        self.grow(steps)

    def _node(self, kind: str, name: str, md5, mtime, inputs) -> int:
        node = len(self.kinds)
        self.kinds.append(kind)
        self.names.append(name)
        self.md5.append(md5)
        self.mtime.append(mtime)
        self.inputs.append(inputs)
        self.refs.append(None)
        self._rin.append([])
        for other in inputs:
            self._rin[other].append(node)
        return node

    def grow(self, steps: int) -> range:
        """Generate ``steps`` more groups; returns their step numbers."""
        rng = self.rng
        first = self.steps
        for step in range(first, first + steps):
            source = self._node(
                "source", f"/src/{self.token}/file{step}.c",
                f"s{self.token}{step:07d}",
                round(step + 0.4 * rng.random(), 4), [])
            reads = [source]
            reads += [self.sources[rng.randrange(step)]
                      for _ in range(min(self.FAN, step))]
            for back in range(1, self.BACK_LINKS + 1):
                earlier = step - back * self.chains
                if earlier >= 0:
                    reads.append(self.outputs[earlier])
            # A record names each input once.
            reads = list(dict.fromkeys(reads))
            process = self._node("process", f"cc#{step}", None, None, reads)
            output = self._node(
                "output", f"/out/{self.token}/file{step}.o",
                f"o{self.token}{step:07d}",
                round(step + 0.5 + 0.4 * rng.random(), 4), [process])
            self.sources.append(source)
            self.outputs.append(output)
        self.steps = first + steps
        return range(first, self.steps)

    def snapshot(self, chain: int, serial: int) -> int:
        """Generate a snapshot of ``chain``'s newest output."""
        tail = self.steps - 1 - (self.steps - 1 - chain) % self.chains
        node = self._node(
            "snapshot", f"/pass/dag/snap{serial}-chain{chain}",
            f"t{self.token}{serial:04d}{chain:05d}", None,
            [self.outputs[tail], self.BUILDER])
        self.snapshots.append(node)
        self.snapshot_bytes[node] = self.rng.randint(6144, 10240)
        return node

    # -- disclosure (the measured application code) ---------------------------

    def disclose_steps(self, proc, steps: range) -> None:
        dpapi = proc.dpapi
        record, record_many = dpapi.record, dpapi.record_many
        refs, names, md5, mtime = self.refs, self.names, self.md5, self.mtime
        if refs[self.BUILDER] is None:
            refs[self.BUILDER] = proc.proc.ref()
        for step in steps:
            source, output = self.sources[step], self.outputs[step]
            process = source + 1
            src_fd = dpapi.pass_mkobj()
            proc_fd = dpapi.pass_mkobj()
            out_fd = dpapi.pass_mkobj()
            refs[source] = dpapi.ref_of(src_fd)
            refs[process] = dpapi.ref_of(proc_fd)
            refs[output] = dpapi.ref_of(out_fd)
            records = [
                record(src_fd, Attr.TYPE, ObjType.FILE),
                record(src_fd, Attr.NAME, names[source]),
                record(src_fd, Attr.MD5, md5[source]),
                record(src_fd, "MTIME", mtime[source]),
                record(proc_fd, Attr.TYPE, ObjType.PROCESS),
                record(proc_fd, Attr.NAME, names[process]),
            ]
            records += record_many(
                proc_fd, Attr.INPUT,
                [refs[other] for other in self.inputs[process]])
            records += [
                record(out_fd, Attr.TYPE, ObjType.FILE),
                record(out_fd, Attr.NAME, names[output]),
                record(out_fd, Attr.MD5, md5[output]),
                record(out_fd, "MTIME", mtime[output]),
                record(out_fd, Attr.INPUT, refs[process]),
            ]
            dpapi.pass_write(out_fd, records=records)
            # Persist the group now: nothing on disk descends from it yet.
            dpapi.pass_sync(out_fd)

    def disclose_snapshot(self, proc, node: int) -> None:
        dpapi = proc.dpapi
        tail = self.inputs[node][0]
        fd = proc.open(self.names[node], "w")
        dpapi.pass_write(fd, data=b"s" * self.snapshot_bytes[node], records=[
            dpapi.record(fd, Attr.MD5, self.md5[node]),
            dpapi.record(fd, Attr.INPUT, self.refs[tail]),
        ])
        self.refs[node] = dpapi.ref_of(fd)
        proc.close(fd)

    # -- reference answers, from the generator's own lists --------------------

    def _refs(self, nodes) -> set:
        return {self.refs[node] for node in nodes}

    def ancestors(self, node: int) -> set:
        return self._refs(_closure(node, self.inputs.__getitem__))

    def inputs_within(self, node: int, minimum: int, maximum: int) -> set:
        return self._refs(_layered(node, self.inputs.__getitem__,
                                   minimum, maximum))

    def descendants_within(self, node: int, minimum: int, maximum: int,
                           limit: int) -> set:
        """Over the first ``limit`` nodes only (the graph at the time
        the query ran)."""
        def consumers(other):
            return [user for user in self._rin[other] if user < limit]
        return self._refs(_layered(node, consumers, minimum, maximum))

    def files_in_mtime(self, low: float, high, limit: int) -> set:
        return {self.refs[node] for node in range(1, limit)
                if self.mtime[node] is not None and self.mtime[node] >= low
                and (high is None or self.mtime[node] < high)}

    # -- queries --------------------------------------------------------------
    # ``limit`` is the number of nodes that existed when the query ran.

    def point(self, node: int) -> Query:
        return Query("point",
                     f'select F from {_FILE} as F '
                     f'where F.md5 = "{self.md5[node]}"',
                     lambda dag: {dag.refs[node]})

    def closure(self, snapshot: int) -> Query:
        # Ancestors never change once a node exists: no limit needed.
        return Query("closure",
                     f'select A from {_FILE} as S, S.input* as A '
                     f'where S.md5 = "{self.md5[snapshot]}"',
                     lambda dag: dag.ancestors(snapshot))

    def descendants(self, source: int, limit: int) -> Query:
        return Query("descendants",
                     f'select D from {_FILE} as F, F.^input{{1,3}} as D '
                     f'where F.md5 = "{self.md5[source]}"',
                     lambda dag: dag.descendants_within(source, 1, 3, limit))

    def name_traverse(self, output: int) -> Query:
        return Query("name_traverse",
                     f'select A from {_FILE} as F, F.input{{1,2}} as A '
                     f'where F.name = "{self.names[output]}"',
                     lambda dag: dag.inputs_within(output, 1, 2))

    def range_recent(self, low: float, limit: int) -> Query:
        return Query("range_recent",
                     f'select F from {_FILE} as F where F.mtime >= {low}',
                     lambda dag: dag.files_in_mtime(low, None, limit))

    def range_window(self, low: float, high: float, limit: int) -> Query:
        return Query("range_window",
                     f'select F from {_FILE} as F '
                     f'where F.mtime >= {low} and F.mtime < {high}',
                     lambda dag: dag.files_in_mtime(low, high, limit))


class _DagWorkload(Workload):
    """Shared plumbing: one application process disclosing a BuildDag
    that was generated, with its queries, before the machine booted."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._exit = contextlib.ExitStack()
        self.proc = None
        self._fresh: list[list[Query]] = []
        self._warm: list[list[Query]] = []

    def setup(self, system: System) -> None:
        # One long-lived provenance-aware application; its descriptors
        # stay open across rounds.
        self.proc = self._exit.enter_context(
            system.process(argv=["builder"]))
        self.proc.mkdir("/pass/dag")

    def close(self) -> None:
        self._exit.close()

    def fresh_queries(self, round_index: int) -> list[Query]:
        return self._fresh[round_index]

    def warm_queries(self, round_index: int) -> list[Query]:
        return self._warm[round_index]

    def reference(self, system: System) -> BuildDag:
        return self.dag


class QueryScale(_DagWorkload):
    """Bulk-disclose a build DAG with more closure roots than the
    ancestry-view LRU holds (``VIEW_MAX_ENTRIES`` = 512), then a seeded
    mix of six query kinds including the two-sided ``mtime`` window no
    other benchmark shows."""

    name = "query_scale"
    STEPS = 5200
    CHAINS = 768
    HOT_ROOTS = 64
    WARM_QUERIES = 3000

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        steps = _scaled(self.STEPS, scale, 200)
        chains = min(self.CHAINS, steps // 4)
        self.dag = dag = BuildDag(self.rng, steps, chains)
        for chain in range(chains):
            dag.snapshot(chain, 0)
        limit = len(dag.kinds)
        newest = steps - 1
        self._fresh.append([
            dag.point(dag.outputs[newest // 2]),
            dag.closure(dag.snapshots[0]),
            dag.descendants(dag.sources[0], limit),
            dag.name_traverse(dag.outputs[newest]),
            dag.range_recent(float(newest), limit),
            dag.range_window(newest / 2, newest / 2 + 10.0, limit)])
        self._warm.append(self._mix(_scaled(self.WARM_QUERIES, scale, 200),
                                    limit))

    def _mix(self, count: int, limit: int) -> list[Query]:
        dag, rng = self.dag, self.rng
        steps = dag.steps
        hot = rng.sample(dag.snapshots,
                         min(self.HOT_ROOTS, len(dag.snapshots)))
        # Every root once, in seeded order, before any root twice.
        sweep = itertools.cycle(rng.sample(dag.snapshots,
                                           len(dag.snapshots)))
        files = dag.sources + dag.outputs
        windows = max(1, count // 50)
        slot = 0
        queries = []
        for index in range(count):
            draw = index % 100
            if draw < 35:
                queries.append(dag.point(rng.choice(files)))
            elif draw < 47:
                queries.append(dag.closure(rng.choice(hot)))
            elif draw < 65:
                # 40% of the closures come from the hot set and 60% sweep
                # over every root: more distinct roots than the view LRU
                # holds, so it both hits and evicts.
                queries.append(dag.closure(next(sweep)))
            elif draw < 80:
                queries.append(dag.descendants(rng.choice(dag.sources),
                                               limit))
            elif draw < 90:
                queries.append(dag.name_traverse(rng.choice(dag.outputs)))
            elif draw < 98:
                queries.append(dag.range_recent(
                    float(steps - rng.randint(5, 15)), limit))
            else:
                # Lower bounds on an even grid with jitter: the work a
                # window does grows with everything above its lower
                # bound, so every seed gets the same spread of bounds.
                low = round(steps * (0.1 + 0.8 * (slot + rng.random())
                                     / windows), 2)
                slot += 1
                queries.append(dag.range_window(low, low + 10.0, limit))
        rng.shuffle(queries)
        return queries

    def capture(self, system: System, round_index: int) -> None:
        dag = self.dag
        dag.disclose_steps(self.proc, range(dag.steps))
        for node in dag.snapshots:
            dag.disclose_snapshot(self.proc, node)


class LiveMixed(_DagWorkload):
    """The same DAG grown round by round; every round is capture ->
    sync -> fresh query pass -> warm queries on the one live engine, so
    apply-time index maintenance is paid beside the reads it serves."""

    name = "live_mixed"
    rounds = 20
    STEPS_PER_ROUND = 285
    CHAINS = 64
    SNAPSHOTS_PER_ROUND = 8
    WARM_PER_ROUND = 60

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        per_round = _scaled(self.STEPS_PER_ROUND, scale, 20)
        warm = _scaled(self.WARM_PER_ROUND, scale, 6)
        chains = min(self.CHAINS, per_round)
        self.dag = dag = BuildDag(self.rng, 0, chains)
        self._steps: list[range] = []
        self._snapshots: list[list[int]] = []
        rng = self.rng
        for round_index in range(self.rounds):
            steps = dag.grow(per_round)
            snapshots = [dag.snapshot(
                (round_index * self.SNAPSHOTS_PER_ROUND + offset) % chains,
                round_index) for offset in range(self.SNAPSHOTS_PER_ROUND)]
            self._steps.append(steps)
            self._snapshots.append(snapshots)
            limit = len(dag.kinds)
            newest = steps[-1]
            # The graph so far: every list below is a prefix.
            roots = list(dag.snapshots)
            outputs = dag.outputs[:newest + 1]
            sources = dag.sources[:newest + 1]
            self._fresh.append([
                dag.closure(snapshots[0]),
                dag.point(dag.outputs[newest]),
                dag.descendants(dag.sources[max(0, newest - chains)],
                                limit)])
            mix = []
            for index in range(warm):
                draw = index % 3
                if draw == 0:
                    mix.append(dag.closure(rng.choice(roots)))
                elif draw == 1:
                    mix.append(dag.point(rng.choice(outputs)))
                else:
                    mix.append(dag.descendants(rng.choice(sources), limit))
            rng.shuffle(mix)
            self._warm.append(mix)

    def capture(self, system: System, round_index: int) -> None:
        self.dag.disclose_steps(self.proc, self._steps[round_index])
        for node in self._snapshots[round_index]:
            self.dag.disclose_snapshot(self.proc, node)


WORKLOADS = {cls.name: cls for cls in (CaptureMix, DiscloseBurst,
                                       QueryScale, LiveMixed)}
