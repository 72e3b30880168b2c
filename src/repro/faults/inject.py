"""The fault injector: the object components actually hold.

Components that host injection sites take a ``faults=None`` keyword and
guard every site with one branch::

    if self._faults is not None:
        self._faults.fire("disk.write", nbytes=nbytes)

so a disarmed system pays nothing (the paper's hot paths stay free).
When armed, :meth:`fire`:

1. counts the hit (per-site, 1-based -- the coordinate system crash
   points are named in);
2. optionally records a trace entry (the explorer's discovery pass);
3. consults the plan.  ``crash``/``io_error`` are raised here;
   site-interpreted actions (``torn``, ``drop``, ``delay``,
   ``duplicate``, ``partition``) are returned as a :class:`FaultAction`
   for the site to apply with domain knowledge.

A crash *halts* the injector: any later ``fire`` from any site raises
again, so a simulated machine cannot write durable state after it died
(cleanup paths, context-manager ``finally`` blocks, ...).

Every fired fault is counted and exposed to the ``repro.obs`` registry
via :meth:`bind_obs` -- a snapshot-time collector, costing nothing
between snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import CrashFault, FaultPlan, IOFault


@dataclass(frozen=True)
class FaultAction:
    """A site-interpreted fault: what to do, with which knob."""

    kind: str
    param: float
    site: str
    hit: int


class FaultInjector:
    """Per-simulation fault state: hit counters, trace, plan."""

    def __init__(self, plan: Optional[FaultPlan] = None,
                 record_trace: bool = False):
        self.plan = plan
        self.record_trace = record_trace
        #: 1-based hit counts per site name.
        self.hits: dict[str, int] = {}
        #: (site, hit, payload) tuples, recorded only when tracing.
        self.trace: list[tuple[str, int, dict]] = []
        #: True once a crash fired; the machine is dead.
        self.halted = False
        #: Observability handle (duck-typed; set by bind_obs).  Fired
        #: faults are journaled through it so a crashtest failure can
        #: be correlated with the exact span the fault fired in.
        self._obs = None
        # Statistics (harvested by obs at snapshot time).
        self.faults_fired = 0
        self.fired_by_action: dict[str, int] = {}

    # -- the one hot-path entry point -----------------------------------------

    def fire(self, site: str, **payload) -> Optional[FaultAction]:
        """Register one hit of ``site``; fire any matching rules.

        Raises :class:`CrashFault` / :class:`IOFault` for machine-level
        faults; returns a :class:`FaultAction` for the site to apply,
        or None.
        """
        if self.halted:
            raise CrashFault(
                f"machine is halted; post-crash activity at {site}",
                site=site)
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        if self.record_trace:
            self.trace.append((site, hit, payload))
        if self.plan is None:
            return None
        action: Optional[FaultAction] = None
        for rule in self.plan.rules_for(site):
            if not rule.should_fire(hit, self.plan.rng):
                continue
            self.faults_fired += 1
            self.fired_by_action[rule.action] = \
                self.fired_by_action.get(rule.action, 0) + 1
            if self._obs is not None:
                # Unsampled: a fired fault is the event a crashtest
                # post-mortem greps for.  The journal stamps the
                # trace/span ids of whatever span is open right now.
                self._obs.event("fault.fired", layer="faults",
                                always=True, site=site, hit=hit,
                                action=rule.action, param=rule.param)
            if rule.action == "crash":
                self.halted = True
                raise CrashFault(
                    f"injected crash at {site} (hit {hit})",
                    site=site, hit=hit)
            if rule.action == "io_error":
                raise IOFault(
                    f"injected I/O error at {site} (hit {hit})",
                    site=site, hit=hit)
            action = FaultAction(rule.action, rule.param, site, hit)
        return action

    def halt(self, exc: CrashFault) -> CrashFault:
        """Mark the machine dead and hand the exception back to raise
        (sites applying ``torn`` die *after* mutating durable state)."""
        self.halted = True
        return exc

    # -- observability ---------------------------------------------------------

    def bind_obs(self, obs) -> None:
        """Expose fired-fault totals as a ``faults`` layer in the
        metrics snapshot (collector: nothing on the hot path), and keep
        the handle so fired faults land in the event journal."""
        self._obs = obs
        obs.add_collector("faults", self._obs_counters)

    def _obs_counters(self) -> dict:
        counters = {
            "faults_fired": self.faults_fired,
            "sites_hit": len(self.hits),
            "site_hits_total": sum(self.hits.values()),
            "halted": int(self.halted),
        }
        for action, count in self.fired_by_action.items():
            counters[f"fired_{action}"] = count
        return counters

    def __repr__(self) -> str:
        state = "halted" if self.halted else "live"
        return (f"<FaultInjector {state}: {self.faults_fired} fired over "
                f"{sum(self.hits.values())} hits>")
