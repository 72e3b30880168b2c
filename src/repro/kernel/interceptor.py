"""The interceptor: the thin, OS-specific layer feeding the observer.

"The interceptor intercepts system calls and passes information to the
observer" (section 5.3).  It handles ``execve, fork, exit, read, readv,
write, writev, mmap, open, pipe`` and the kernel operation
``drop_inode``.  Everything downstream of it is OS-independent; in this
reproduction the interceptor is also the on/off switch that turns the
machine into the vanilla-ext3 baseline for benchmarking.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.observer import Observer

#: Events the interceptor knows how to capture.
HANDLED_EVENTS = frozenset({
    "execve", "fork", "exit", "read", "readv", "write", "writev",
    "mmap", "open", "pipe", "drop_inode",
})


class Interceptor:
    """Counts syscall events and hands them to the observer when enabled."""

    def __init__(self, observer: Optional["Observer"] = None,
                 enabled: bool = False, obs=NULL_OBS):
        self.observer = observer
        self.enabled = enabled
        self.counts: Counter[str] = Counter()
        #: Events reported while detached (the baseline path).
        self.unobserved = 0
        # The counts above are harvested at snapshot time -- the event()
        # hot path pays nothing for observability.
        obs.add_collector("interceptor", self._obs_counters)

    def _obs_counters(self) -> dict:
        counters = {f"event.{name}": count
                    for name, count in self.counts.items()}
        counters["events_total"] = sum(self.counts.values())
        counters["events_unobserved"] = self.unobserved
        return counters

    def attach(self, observer: "Observer") -> None:
        """Wire in the observer and start capturing."""
        self.observer = observer
        self.enabled = True

    def event(self, name: str) -> Optional["Observer"]:
        """Report one event; returns the observer iff it should see it.

        The syscall layer uses the returned observer to route both the
        provenance *and* the data (pass_read / pass_write semantics);
        ``None`` means take the plain, provenance-free path.
        """
        if name not in HANDLED_EVENTS:
            return None
        self.counts[name] += 1
        if self.enabled and self.observer is not None:
            return self.observer
        self.unobserved += 1
        return None
