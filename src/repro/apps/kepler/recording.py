"""Kepler's provenance recording interface and its three backends.

Kepler records provenance for all communication between workflow
operators, "recording these events either in a text file or relational
database.  We added a third recording option: transmitting the
provenance into PASSv2 via the DPAPI" (section 6.2).

* :class:`TextRecorder`     -- event lines appended to a file;
* :class:`DatabaseRecorder` -- rows in a relational-style table;
* :class:`PassRecorder`     -- one ``pass_mkobj`` object per operator
  (NAME, TYPE=OPERATOR, PARAMS attributes), an ancestry record per token
  transfer, and source/sink linking between operators and the files they
  read or write.
"""

from __future__ import annotations

from repro.apps.kepler.actors import Actor, FiringContext, Token
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ObjType


class Recorder:
    """Null recorder: the no-provenance baseline."""

    #: Whether contexts should capture refs / disclose via the DPAPI.
    uses_dpapi = False

    def workflow_started(self, workflow) -> None:
        """A run is beginning."""

    def actor_registered(self, actor: Actor) -> None:
        """An operator exists (called once per actor per run)."""

    def token_transferred(self, src: Actor, dst: Actor,
                          token: Token) -> None:
        """One operator's output reached another's input."""

    def actor_fired(self, actor: Actor, ctx: FiringContext) -> None:
        """An operator consumed inputs and produced outputs."""

    def workflow_finished(self, workflow) -> None:
        """The run completed."""

    def context_extras(self, actor: Actor) -> tuple:
        """(dpapi, operator_ref) the firing context should use."""
        return None, None


class TextRecorder(Recorder):
    """Appends human-readable event lines to a file (Kepler's default)."""

    def __init__(self, sc, path: str):
        self.sc = sc
        self.path = path
        self._fd = sc.open(path, "a")

    def _line(self, text: str) -> None:
        self.sc.write(self._fd, (text + "\n").encode())

    def workflow_started(self, workflow) -> None:
        self._line(f"BEGIN workflow {workflow.name}")

    def actor_registered(self, actor: Actor) -> None:
        self._line(f"OPERATOR {actor.name} type={actor.kind} "
                   f"params={sorted(actor.params)}")

    def token_transferred(self, src, dst, token) -> None:
        self._line(f"TRANSFER {src.name} -> {dst.name}")

    def actor_fired(self, actor, ctx) -> None:
        self._line(f"FIRE {actor.name} read={ctx.files_read} "
                   f"wrote={ctx.files_written}")

    def workflow_finished(self, workflow) -> None:
        self._line(f"END workflow {workflow.name}")
        self.sc.close(self._fd)


class DatabaseRecorder(Recorder):
    """Rows in a relational-style events table."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def workflow_started(self, workflow) -> None:
        self.rows.append(("workflow_start", workflow.name))

    def actor_registered(self, actor) -> None:
        self.rows.append(("operator", actor.name, actor.kind,
                          tuple(sorted(actor.params))))

    def token_transferred(self, src, dst, token) -> None:
        self.rows.append(("transfer", src.name, dst.name))

    def actor_fired(self, actor, ctx) -> None:
        self.rows.append(("fire", actor.name,
                          tuple(path for path, _ in ctx.files_read),
                          tuple(path for path, _ in ctx.files_written)))

    def workflow_finished(self, workflow) -> None:
        self.rows.append(("workflow_end", workflow.name))


class PassRecorder(Recorder):
    """Discloses workflow provenance into PASSv2 through the DPAPI."""

    uses_dpapi = True

    def __init__(self, sc):
        self.sc = sc
        self.dpapi = sc.dpapi
        #: actor name -> pass_mkobj descriptor.
        self._fds: dict[str, int] = {}

    # -- operator objects ------------------------------------------------------------

    def actor_registered(self, actor: Actor) -> None:
        fd = self.dpapi.pass_mkobj()
        self._fds[actor.name] = fd
        records = [
            self.dpapi.record(fd, Attr.TYPE, ObjType.OPERATOR),
            self.dpapi.record(fd, Attr.NAME, actor.name),
        ]
        params = ";".join(f"{key}={actor.params[key]!r}"
                          for key in sorted(actor.params)
                          if not callable(actor.params[key]))
        if params:
            records.append(self.dpapi.record(fd, Attr.PARAMS, params))
        self.dpapi.pass_write(fd, records=records)

    def operator_ref(self, actor: Actor) -> ObjectRef:
        return self.dpapi.ref_of(self._fds[actor.name])

    def context_extras(self, actor: Actor) -> tuple:
        return self.dpapi, self.operator_ref(actor)

    # -- events -------------------------------------------------------------------------

    def token_transferred(self, src: Actor, dst: Actor,
                          token: Token) -> None:
        """Ancestry between the sender and every recipient."""
        dst_fd = self._fds[dst.name]
        record = self.dpapi.record(dst_fd, Attr.INPUT,
                                   self.operator_ref(src))
        self.dpapi.pass_write(dst_fd, records=[record])

    def actor_fired(self, actor: Actor, ctx: FiringContext) -> None:
        """Link the operator to the files it read (writes were linked
        inline by the context's disclosed pass_write)."""
        fd = self._fds[actor.name]
        records = [
            self.dpapi.record(fd, Attr.INPUT, ref)
            for _, ref in ctx.files_read if ref is not None
        ]
        if records:
            self.dpapi.pass_write(fd, records=records)

    def workflow_finished(self, workflow) -> None:
        """Persist operator objects even when no file descends from one
        (e.g. a run whose sinks all failed): sync each explicitly."""
        for fd in self._fds.values():
            self.dpapi.pass_sync(fd)
