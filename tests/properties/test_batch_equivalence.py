"""Where the log commits is not observable.

There is one ingest path; what varies is where its WAP log
group-commits.  For *any* churn workload, a log that never
group-commits (every flush is an explicit ordering point), one that
commits after every appended batch, and the default thresholds end up
with identical database contents -- every record, in insertion order --
and identical PQL answers (ProvMark's oracle, PAPERS.md: same scenario,
different capture configuration, same graph).

Identity is checked modulo the two things that legitimately differ
between boots: the globally unique volume id embedded in pnode numbers,
and simulated-clock TIME values (group commit shifts flush timing).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pnode import ObjectRef, TRANSIENT_VOLUME, local_of, volume_of
from repro.core.records import Attr
from repro.kernel.params import LogParams, SimParams
from repro.system import System

#: Log configurations that must not be observable, by name.
CONFIGS = {
    "never": LogParams(group_commit_records=0, group_commit_bytes=0),
    "every_batch": LogParams(group_commit_records=1),
    "default": LogParams(),
}

#: One workload step: (operation, file slot, magnitude).
steps = st.lists(
    st.tuples(
        st.sampled_from(["write", "append", "disclose", "burst",
                         "overwrite", "rename", "read_copy"]),
        st.integers(0, 5),
        st.integers(1, 40),
    ),
    min_size=1, max_size=12,
)


def drive(system: System, workload) -> None:
    """Replay one generated workload deterministically."""
    created: set[int] = set()
    with system.process(argv=["setup"]) as proc:
        proc.mkdir("/pass/eq")
    for index, (op, slot, size) in enumerate(workload):
        path = f"/pass/eq/f{slot}.dat"
        with system.process(argv=[f"step-{index}"]) as proc:
            if op in ("write", "overwrite") or slot not in created:
                fd = proc.open(path, "w")
                proc.write(fd, bytes([65 + slot]) * size)
                proc.close(fd)
                created.add(slot)
            if op == "append":
                fd = proc.open(path, "a")
                proc.write(fd, b"+" * size)
                proc.close(fd)
            elif op == "disclose":
                fd = proc.open(path, "a")
                protos = proc.dpapi.record_many(
                    fd, Attr.ANNOTATION,
                    (f"s{index}.k{key}" for key in range(size)))
                proc.dpapi.pass_write(fd, records=protos)
                proc.close(fd)
            elif op == "burst":
                # Records-only disclosure, scaled past the group-commit
                # threshold often enough to exercise it.
                fd = proc.open(path, "a")
                protos = proc.dpapi.record_many(
                    fd, Attr.ANNOTATION,
                    (f"s{index}.b{key}" for key in range(size * 20)))
                proc.dpapi.pass_write(fd, records=protos)
                proc.close(fd)
            elif op == "rename":
                target = f"/pass/eq/f{slot}-renamed-{index}.dat"
                proc.rename(path, target)
                fd = proc.open(path, "w")
                proc.write(fd, b"refill")
                proc.close(fd)
            elif op == "read_copy":
                fd = proc.open(path, "r")
                payload = proc.read(fd)
                proc.close(fd)
                out = proc.open(f"/pass/eq/copy-{index}.dat", "w")
                proc.write(out, payload or b"empty")
                proc.close(out)
    system.sync()


def _canon_ref(ref: ObjectRef) -> tuple:
    transient = volume_of(ref.pnode) == TRANSIENT_VOLUME
    return (transient, local_of(ref.pnode), ref.version)


def canonical_contents(system: System) -> list[tuple]:
    out = []
    for database in system.databases():
        for record in database.all_records():
            value = record.value
            if isinstance(value, ObjectRef):
                canon: object = ("ref",) + _canon_ref(value)
            elif record.attr == Attr.TIME:
                canon = "<time>"
            else:
                canon = value
            out.append((_canon_ref(record.subject), record.attr, canon))
    return out


QUERIES = (
    'select F from Provenance.file as F where F.name like "%.dat"',
    'select A from Provenance.file as F, F.input* as A '
    'where F.name like "%copy%"',
)


def query_answers(system: System) -> list[list[tuple]]:
    engine = system.query_engine()
    return [sorted(_canon_ref(ref) for ref in engine.execute_refs(query))
            for query in QUERIES]


def run_everywhere(workload) -> dict[str, System]:
    """The workload replayed on one fresh system per configuration:
    all must end up with the same contents and the same answers."""
    systems = {name: System.boot(observability=False,
                                 params=SimParams(log=log))
               for name, log in CONFIGS.items()}
    for system in systems.values():
        drive(system, workload)
    contents = canonical_contents(systems["default"])
    answers = query_answers(systems["default"])
    for name, system in systems.items():
        assert canonical_contents(system) == contents, name
        assert query_answers(system) == answers, name
    return systems


@given(steps)
@settings(max_examples=25, deadline=None)
def test_batched_pipeline_is_observationally_equivalent(workload):
    run_everywhere(workload)


def test_burst_workload_group_commits():
    """The generated grammar really can reach group commit: a burst-only
    workload fires it, and equivalence still holds there."""
    workload = [("write", 0, 8), ("burst", 0, 40), ("burst", 1, 40)]
    logs = {name: system.kernel.volume("pass").lasagna.log
            for name, system in run_everywhere(workload).items()}
    assert logs["default"].batch_flushes > 0
    assert logs["default"].batch_records > 0
    assert logs["never"].batch_flushes == 0
    assert logs["every_batch"].batch_flushes > logs["default"].batch_flushes
