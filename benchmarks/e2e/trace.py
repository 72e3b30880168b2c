"""Timing wrappers around the public methods at each layer boundary.

Installed from outside for the traced pass and removed afterwards; no
file under ``src/`` knows about them.  Every wrapped call is a span
(name, layer, phase, start, end, parent).  A span's *self time* is its
duration minus the part its child spans cover; it is accumulated per
(span name, phase) as the span closes, so nothing has to be kept to
compute it.  Each phase of the run is itself a root span of the
``workload`` layer: whatever no wrapped call covers -- the generators,
application code, the harness loop -- is the root's self time, which is
why the layers sum to the phase wall clock by construction.

Phase spans and every span of at least ``KEEP_SECONDS`` stay in memory
and are written as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

from repro.core.analyzer import Analyzer
from repro.core.distributor import Distributor
from repro.core.libpass import LibPass
from repro.core.observer import Observer
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls
from repro.kernel.volume import Volume
from repro.pql.engine import QueryEngine
from repro.pql.indexes import AncestryView, IndexCatalog
from repro.pql.oem import OEMGraph
from repro.storage.database import ProvenanceDatabase
from repro.storage.lasagna import Lasagna
from repro.storage.log import ProvenanceLog
from repro.storage.tier import StorageTier
from repro.storage.waldo import Waldo

#: Spans shorter than this are accounted but not kept for the export.
KEEP_SECONDS = 1e-3

WORKLOAD = "workload"

#: layer -> [(class, method names)].  ``PageCache`` and ``Disk`` are
#: deliberately absent: wrapping their per-block calls costs ~20% on
#: the syscall-driven workload, so ``kernel.volume`` is measured at the
#: Volume boundary and includes cache + disk.
LAYER_METHODS = {
    "kernel.syscalls": [
        (Syscalls, ("compute", "open", "close", "read", "pread", "readv",
                    "write", "write_hole", "writev", "pwrite", "pipe",
                    "mmap", "mkdir", "rmdir", "unlink", "rename", "link",
                    "truncate", "stat", "exists", "readdir", "spawn")),
        # fork/execve/exit: what System.process()/System.run() call.
        (Kernel, ("spawn_shell", "run_program", "reap",
                  "register_program")),
    ],
    "kernel.volume": [
        (Volume, ("read_bytes", "write_bytes", "truncate", "journal_op")),
    ],
    "core.libpass": [
        (LibPass, ("pass_read", "pass_write", "pass_freeze", "pass_mkobj",
                   "pass_reviveobj", "pass_sync", "record", "record_many",
                   "ref_of")),
    ],
    "core.observer": [
        (Observer, ("on_execve", "on_fork", "on_exit", "on_read",
                    "on_write", "on_mmap", "on_pipe_create",
                    "on_pipe_write", "on_pipe_read", "on_drop_inode",
                    "identify_inode", "identify_named", "identify_process",
                    "identify_pipe", "disclosed_records", "disclosed_write",
                    "submit_protos", "mkobj", "reviveobj", "sync",
                    "freeze")),
    ],
    "core.analyzer": [
        (Analyzer, ("submit", "submit_many", "submit_batch", "freeze")),
    ],
    "core.distributor": [
        (Distributor, ("dispatch", "flush_batch", "flush", "sync")),
    ],
    "storage.lasagna": [
        (Lasagna, ("append_provenance", "write_bytes", "read_bytes",
                   "truncate", "sync")),
    ],
    "storage.log": [
        (ProvenanceLog, ("append", "append_batch", "flush", "rotate")),
    ],
    "storage.waldo": [
        (Waldo, ("drain",)),
    ],
    "storage.database": [
        (ProvenanceDatabase, ("insert", "insert_many")),
    ],
    "storage.tier": [
        (StorageTier, ("sync", "drain", "federated_sources")),
    ],
    "pql.oem": [
        (OEMGraph, ("build", "apply", "apply_batch")),
    ],
    "pql.indexes": [
        (IndexCatalog, ("equality", "range", "csr")),
        (AncestryView, ("closure",)),
    ],
    "pql.engine": [
        (QueryEngine, ("live", "plan", "execute")),
    ],
}

LAYERS = (WORKLOAD,) + tuple(LAYER_METHODS)


class Tracer:
    """Span stack + self-time accounting for one traced run."""

    def __init__(self) -> None:
        #: Open spans, innermost last: [name, start, child_seconds, id].
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._phase = ""
        #: phase -> span name -> self seconds.
        self.self_s: dict[str, dict[str, float]] = {}
        self._acc: dict[str, float] = {}
        #: span name -> times a call entered the layer from another one.
        self.entries: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        #: Kept spans: (id, parent, name, phase, start, end).
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        for layer, groups in LAYER_METHODS.items():
            for cls, names in groups:
                for method in names:
                    self._patch(cls, method, layer)
        # Application code runs *inside* the kernel (run_program calls
        # the program); hand it back to the workload layer.
        self._patch_programs()

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    def _patch(self, cls, method: str, layer: str) -> None:
        original = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        self.layer_of[name] = layer
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, layer))
        else:
            wrapped = self._wrap(original, name, layer)
        self._patched.append((cls, method, original))
        setattr(cls, method, wrapped)

    def _patch_programs(self) -> None:
        name = "Program.__call__"
        self.layer_of[name] = WORKLOAD
        traced = functools.partial(self._wrap, name=name, layer=WORKLOAD)
        run_program = Kernel.run_program     # already span-wrapped
        program_at = Kernel.__dict__["program_at"]

        def run_with_traced_program(kernel, path, *args, program=None,
                                    **kwargs):
            if program is not None:
                program = traced(program)
            return run_program(kernel, path, *args, program=program,
                               **kwargs)

        def traced_program_at(kernel, path):
            return traced(program_at(kernel, path))

        self._patched.append((Kernel, "run_program", run_program))
        Kernel.run_program = run_with_traced_program
        self._patched.append((Kernel, "program_at", program_at))
        Kernel.program_at = traced_program_at

    def _wrap(self, func, name: str, layer: str):
        stack = self._stack
        perf = time.perf_counter
        ids = self._ids
        layer_of = self.layer_of
        entries = self.entries
        spans = self.spans
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            if not stack:               # outside every phase: not ours
                return func(*args, **kwargs)
            parent = stack[-1]
            if layer_of[parent[0]] != layer:
                entries[name] += 1
            frame = [name, perf(), 0.0, next(ids)]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                tracer._acc[name] += duration - frame[2]
                parent[2] += duration
                if duration >= KEEP_SECONDS:
                    spans.append((frame[3], parent[3], name, tracer._phase,
                                  frame[1], end))
        return span

    # -- phases -----------------------------------------------------------

    def begin_phase(self, phase: str) -> None:
        """Open the phase's root ``workload`` span."""
        name = f"phase.{phase}"
        self.layer_of[name] = WORKLOAD
        self._phase = phase
        self._acc = self.self_s.setdefault(phase, defaultdict(float))
        self._stack.append([name, time.perf_counter(), 0.0,
                            next(self._ids)])

    def end_phase(self) -> None:
        end = time.perf_counter()
        name, start, child_seconds, span_id = self._stack.pop()
        if self._stack:
            raise RuntimeError(f"phase {self._phase} closed with spans "
                               f"still open: {self._stack}")
        self._acc[name] += (end - start) - child_seconds
        self.spans.append((span_id, 0, name, self._phase, start, end))

    # -- results ----------------------------------------------------------

    def self_by_layer(self) -> dict[str, dict[str, float]]:
        """phase -> layer -> self seconds (every layer present)."""
        out = {}
        for phase, by_name in self.self_s.items():
            row = dict.fromkeys(LAYERS, 0.0)
            for name, seconds in by_name.items():
                row[self.layer_of[name]] += seconds
            out[phase] = row
        return out

    def self_by_name(self) -> dict[str, float]:
        """span name -> self seconds over all phases."""
        out: dict[str, float] = defaultdict(float)
        for by_name in self.self_s.values():
            for name, seconds in by_name.items():
                out[name] += seconds
        return dict(out)

    def entries_by_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, count in self.entries.items():
            out[self.layer_of[name]] += count
        return out

    def write_chrome(self, path: str) -> None:
        """The kept spans as Chrome trace-event JSON (µs from the first
        span; one thread -- the benchmark is a single closed loop)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        events = [{
            "name": name, "cat": self.layer_of[name], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"id": span_id, "parent": parent, "phase": phase},
        } for span_id, parent, name, phase, start, end
            in sorted(self.spans, key=lambda span: (span[4], -span[5]))]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
