"""One-call assembly of a provenance-aware machine.

:class:`System` boots a simulated machine with PASS-enabled and plain
volumes, attaches Lasagna and Waldo to each PASS volume, wires the
observer/analyzer/distributor pipeline, and exposes convenience entry
points for running programs and querying provenance.

    sys_ = System.boot()
    with sys_.process() as proc:
        fd = proc.open("/pass/data.txt", "w")
        proc.write(fd, b"payload")
        proc.close(fd)
    sys_.sync()
    refs = sys_.find_by_name("/pass/data.txt")

Booting with ``provenance=False`` produces the vanilla-ext3 baseline the
benchmarks compare against.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterable, Optional

from repro.core.pnode import ObjectRef
from repro.kernel.kernel import Kernel, Program
from repro.kernel.params import SimParams
from repro.kernel.syscalls import Syscalls
from repro.obs import Observability
from repro.storage.database import ProvenanceDatabase
from repro.storage.tier import StorageTier


@dataclasses.dataclass(frozen=True)
class BootConfig:
    """Everything :meth:`System.boot` needs, as one value.

    Boot call sites (benchmarks, crashlab, workloads) share configs by
    defining them once and passing ``System.boot(config=...)``; keyword
    arguments override config fields, so
    ``System.boot(config=QUIET, tracing=True)`` is the quiet config with
    tracing flipped on.
    """

    params: Optional[SimParams] = None
    pass_volumes: Iterable[str] = ("pass",)
    plain_volumes: Iterable[str] = ("scratch",)
    provenance: bool = True
    hostname: str = "sim"
    clock: object = None
    observability: bool = True
    tracing: bool = False
    #: Structured event journal (bounded, sampled JSONL events from the
    #: hot-path seams plus the slow-query log).  Off by default: the
    #: export half of observability is opt-in like tracing.
    journal: bool = False
    faults: object = None


class System:
    """A booted machine: kernel + storage + provenance pipeline."""

    def __init__(self, kernel: Kernel, tier: StorageTier,
                 provenance: bool):
        self.kernel = kernel
        #: The storage facade: each PASS volume's WAP log, Waldo and
        #: database, and query federation (repro.storage.tier).
        self.tier = tier
        self.provenance = provenance
        self._query_engine = None
        # Shared clocks (NFS pairs, sequential benchmark systems) carry
        # history from earlier machines; elapsed() measures from *this*
        # boot so reuse stays monotonic and starts at zero.
        self._boot_time = kernel.clock.now

    # -- construction ----------------------------------------------------------------

    @classmethod
    def boot(cls, config: Optional[BootConfig] = None,
             **overrides) -> "System":
        """Boot a machine from a :class:`BootConfig`.

        ``config`` supplies every knob at once (defaults to
        ``BootConfig()``); each keyword argument names a
        :class:`BootConfig` field and overrides it (an explicit
        ``None`` too; an unknown name is a ``TypeError``), so both
        ``System.boot(tracing=True)`` and
        ``System.boot(config=shared, tracing=True)`` work.

        Each name in ``pass_volumes`` becomes a PASS-enabled volume
        mounted at ``/<name>`` with its own Lasagna and Waldo; names in
        ``plain_volumes`` become ordinary (ext3-style) volumes.  The
        first PASS volume hosts provenance of transient objects by
        default.  With ``provenance=False`` the same volumes exist but
        the interceptor stays detached (the benchmark baseline).

        ``observability`` controls per-layer metrics (cheap; on by
        default), ``tracing`` controls span collection (off by
        default).  Both are readable via :meth:`stats` / :meth:`trace`.

        ``faults`` arms a :class:`repro.faults.FaultInjector` at every
        injection site in the stack (disk, WAP log, Lasagna, Waldo,
        distributor); None -- the default -- keeps the hot paths bare.
        """
        cfg = dataclasses.replace(config or BootConfig(), **overrides)
        obs = Observability(metrics_enabled=cfg.observability,
                            trace_enabled=cfg.tracing,
                            journal_enabled=cfg.journal)
        kernel = Kernel(cfg.params, hostname=cfg.hostname, clock=cfg.clock,
                        obs=obs, faults=cfg.faults)
        if cfg.faults is not None:
            cfg.faults.bind_obs(obs)
        tier = StorageTier(obs=kernel.obs, faults=cfg.faults)
        for name in cfg.pass_volumes:
            volume = kernel.add_volume(name, f"/{name}", pass_capable=True)
            if cfg.provenance:
                tier.attach(volume, kernel.params)
        for name in cfg.plain_volumes:
            kernel.add_volume(name, f"/{name}", pass_capable=False)
        if cfg.provenance:
            kernel.enable_provenance()
            kernel.cache.shrink(kernel.params.cache.stack_cache_factor)
        return cls(kernel, tier, cfg.provenance)

    # -- running programs ---------------------------------------------------------------

    @contextlib.contextmanager
    def process(self, argv: Optional[list[str]] = None):
        """A context-managed 'shell' process for direct syscall use."""
        syscalls = self.kernel.spawn_shell(argv or ["sh"])
        try:
            yield syscalls
        finally:
            self.kernel.reap(syscalls.proc, 0)

    def register_program(self, path: str, program: Program,
                         size: int = 102400):
        """Install an executable file backed by a Python callable."""
        return self.kernel.register_program(path, program, size)

    def run(self, path: str, argv: Optional[list[str]] = None,
            env: Optional[dict[str, str]] = None,
            program: Optional[Program] = None):
        """Run a program to completion; returns the Process."""
        return self.kernel.run_program(path, argv=argv, env=env,
                                       program=program)

    # -- provenance plumbing -----------------------------------------------------------------

    def sync(self) -> int:
        """Flush all logs and drain every Waldo; returns records inserted.

        The live query engine (if one has been handed out) absorbs the
        drained records through the databases' push feed, so a sync is
        an O(new records) update -- the engine is never invalidated.
        """
        with self.obs.span("system.sync", layer="system"):
            return self.tier.sync()

    def sizes(self) -> dict:
        """Tier-wide database/index byte sizes (Table 3 rollup)."""
        return self.tier.sizes()

    def databases(self) -> list[ProvenanceDatabase]:
        """Every PASS volume's database, volume order."""
        return self.tier.databases()

    def database(self, volume: Optional[str] = None) -> ProvenanceDatabase:
        """One volume's database (the first PASS volume by default);
        raises :class:`~repro.core.errors.NotPassVolume` for a volume
        without provenance storage."""
        return self.tier.database(volume)

    # -- queries --------------------------------------------------------------------------

    def find_by_name(self, name: str) -> list[ObjectRef]:
        """Refs of every version of every object whose NAME equals
        ``name``, from the live graph's name index (:meth:`sync` first)."""
        return [node.ref for node in self.query_engine().graph.named(name)]

    def query(self, text: str):
        """Run a PQL query against the merged provenance graph."""
        return self.query_engine().execute(text)

    def query_engine(self):
        """The single live PQL engine over all volumes' provenance.

        Built once (lazily), then kept current by the databases' push
        feed: records drained by later :meth:`sync` calls are spliced
        into the engine's graph incrementally, so the same engine object
        is returned forever.  Call :meth:`sync` first so recent
        provenance reaches the databases.
        """
        if self._query_engine is None:
            from repro.pql.engine import QueryEngine
            self._query_engine = QueryEngine.live(
                self.tier.federated_sources(), obs=self.obs)
        return self._query_engine

    def fsck(self):
        """Integrity-check every volume's database (see storage.fsck)."""
        from repro.storage.fsck import fsck
        return fsck(self.databases())

    # -- observability ----------------------------------------------------------

    @property
    def obs(self) -> "Observability":
        """This machine's observability instance (metrics + tracer)."""
        return self.kernel.obs

    def stats(self) -> dict:
        """Per-layer metrics snapshot (see docs/OBSERVABILITY.md)."""
        return self.kernel.obs.stats()

    def trace(self) -> list[dict]:
        """Finished spans (boot with ``tracing=True`` to collect)."""
        return self.kernel.obs.trace()

    def trace_export(self) -> dict:
        """The full trace document: ``{"spans", "dropped_spans"}``."""
        return self.kernel.obs.trace_export()

    def journal_events(self, kind: Optional[str] = None) -> list[dict]:
        """Journal events (boot with ``journal=True`` to collect)."""
        return self.kernel.obs.journal_events(kind)

    def elapsed(self) -> float:
        """Simulated seconds since *this* system booted (monotonic even
        when the underlying clock is shared with earlier boots)."""
        return self.kernel.clock.since(self._boot_time)

    def __repr__(self) -> str:
        mode = "PASSv2" if self.provenance else "baseline"
        return f"<System {self.kernel.hostname} ({mode}) t={self.elapsed():.3f}s>"
