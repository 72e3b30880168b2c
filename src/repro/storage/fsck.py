"""passfsck: integrity checking for a provenance database.

The WAP protocol and the analyzer guarantee a set of structural
invariants; this checker verifies them over a (possibly merged)
database, the way fsck verifies a file system after the fact:

1. **Acyclicity** -- the ancestry graph over (pnode, version) is a DAG;
2. **Version chains** -- every version > 0 carries exactly one
   PREV_VERSION record pointing to version - 1;
3. **No dangling references** -- every cross-reference names an object
   that has records of its own (or is a known base version of one);
4. **Identity presence** -- every object with ancestry records also has
   a TYPE record somewhere in its history;
5. **Version monotonicity** -- versions of a pnode form a contiguous
   range starting at 0;
6. **No framing leakage** -- BEGINTXN/ENDTXN never appear in a database
   (Waldo strips them).

Each violation is reported, not raised, so the checker can run over
deliberately damaged stores in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.pnode import ObjectRef
from repro.core.records import Attr


@dataclass
class Finding:
    """One invariant violation."""

    check: str
    subject: ObjectRef
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of one integrity pass."""

    findings: list[Finding] = field(default_factory=list)
    objects_checked: int = 0
    records_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        status = "clean" if self.clean else f"{len(self.findings)} finding(s)"
        return (f"passfsck: {self.objects_checked} objects, "
                f"{self.records_checked} records, {status}")

    def to_dict(self) -> dict:
        """JSON-ready summary (what ``repro fsck`` prints)."""
        return {
            "clean": self.clean,
            "objects_checked": self.objects_checked,
            "records_checked": self.records_checked,
            "findings": [
                {
                    "check": finding.check,
                    "subject": {"pnode": finding.subject.pnode,
                                "version": finding.subject.version},
                    "detail": finding.detail,
                }
                for finding in self.findings
            ],
        }


def fsck(databases: Iterable) -> FsckReport:
    """Run every check over the merged databases."""
    databases = list(databases)
    report = FsckReport()

    # Gather the universe once.
    versions: dict[int, set[int]] = {}
    attrs_by_subject: dict[ObjectRef, set[str]] = {}
    edges: dict[ObjectRef, list[ObjectRef]] = {}
    prev_links: dict[ObjectRef, list[ObjectRef]] = {}
    referenced: set[ObjectRef] = set()
    typed_pnodes: set[int] = set()

    for database in databases:
        for record in database.all_records():
            report.records_checked += 1
            subject = record.subject
            versions.setdefault(subject.pnode, set()).add(subject.version)
            attrs_by_subject.setdefault(subject, set()).add(record.attr)
            if record.attr == Attr.TYPE:
                typed_pnodes.add(subject.pnode)
            if record.attr in (Attr.BEGINTXN, Attr.ENDTXN):
                report.findings.append(Finding(
                    "framing-leak", subject,
                    f"{record.attr} record inside the database"))
            if isinstance(record.value, ObjectRef):
                referenced.add(record.value)
                if record.is_ancestry:
                    edges.setdefault(subject, []).append(record.value)
                if record.attr == Attr.PREV_VERSION:
                    prev_links.setdefault(subject, []).append(record.value)

    report.objects_checked = len(versions)

    _check_acyclic(edges, report)
    _check_version_chains(versions, prev_links, report)
    _check_dangling(referenced, versions, report)
    _check_identity(edges, typed_pnodes, report)
    _check_monotonic(versions, report)
    return report


def _check_acyclic(edges, report: FsckReport) -> None:
    state: dict[ObjectRef, int] = {}
    # Iterative DFS (damaged stores can be deep).
    for root in list(edges):
        if state.get(root, 0) != 0:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        state[root] = 1
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                code = state.get(child, 0)
                if code == 1:
                    report.findings.append(Finding(
                        "cycle", child, "ancestry cycle detected"))
                    continue
                if code == 0:
                    state[child] = 1
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()


def _check_version_chains(versions, prev_links, report: FsckReport) -> None:
    for pnode, seen in versions.items():
        for version in sorted(seen):
            if version == 0:
                continue
            ref = ObjectRef(pnode, version)
            links = prev_links.get(ref, [])
            if not links:
                report.findings.append(Finding(
                    "version-chain", ref, "missing PREV_VERSION record"))
            elif any(link != ObjectRef(pnode, version - 1)
                     for link in links):
                report.findings.append(Finding(
                    "version-chain", ref,
                    f"PREV_VERSION points at {links}, expected "
                    f"{ObjectRef(pnode, version - 1)}"))


def _check_dangling(referenced, versions, report: FsckReport) -> None:
    for ref in referenced:
        known = versions.get(ref.pnode)
        if known is None:
            report.findings.append(Finding(
                "dangling-ref", ref,
                "reference to a pnode with no records at all"))
        elif ref.version not in known and ref.version > max(known):
            report.findings.append(Finding(
                "dangling-ref", ref,
                f"reference to version {ref.version}, but only versions "
                f"<= {max(known)} exist"))


def _check_identity(edges, typed_pnodes, report: FsckReport) -> None:
    flagged: set[int] = set()
    for subject in edges:
        if subject.pnode not in typed_pnodes \
                and subject.pnode not in flagged:
            flagged.add(subject.pnode)
            report.findings.append(Finding(
                "missing-type", subject,
                "object has ancestry but no TYPE record"))


def _check_monotonic(versions, report: FsckReport) -> None:
    for pnode, seen in versions.items():
        expected = set(range(max(seen) + 1))
        missing = expected - seen
        if missing:
            report.findings.append(Finding(
                "version-gap", ObjectRef(pnode, min(missing)),
                f"versions {sorted(missing)} absent from the store"))
