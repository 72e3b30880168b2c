"""The director: fires actors in dataflow order.

An SDF-style scheduler: source actors fire once per iteration; every
other actor fires whenever one token is available on each of its input
ports.  Token delivery notifies the recorder (Kepler's event mechanism),
which is where provenance leaves the engine.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.apps.kepler.actors import Actor, FiringContext, Token
from repro.apps.kepler.recording import (
    DatabaseRecorder,
    PassRecorder,
    Recorder,
    TextRecorder,
)
from repro.apps.kepler.workflow import Workflow
from repro.core.errors import WorkflowError


class Director:
    """Runs one workflow to completion inside one simulated process."""

    def __init__(self, workflow: Workflow, recorder: Optional[Recorder] = None):
        self.workflow = workflow
        self.recorder = recorder or Recorder()
        self.firings = 0

    def run(self, sc, iterations: int = 1) -> None:
        """Execute the workflow ``iterations`` times."""
        self.workflow.validate()
        self.recorder.workflow_started(self.workflow)
        for actor in self.workflow.topological_order():
            self.recorder.actor_registered(actor)

        queues: dict[tuple[str, str], deque[Token]] = {}
        for actor in self.workflow.actors():
            for port in actor.input_ports:
                queues[(actor.name, port)] = deque()

        for _ in range(iterations):
            for source in self.workflow.sources():
                self._fire(source, sc, queues)
            progress = True
            while progress:
                progress = False
                for actor in self.workflow.topological_order():
                    if not actor.input_ports:
                        continue
                    available = {
                        port: len(queues[(actor.name, port)])
                        for port in actor.input_ports
                    }
                    if actor.ready(available):
                        self._fire(actor, sc, queues)
                        progress = True
        self.recorder.workflow_finished(self.workflow)

    def _fire(self, actor: Actor, sc, queues) -> None:
        inputs = {}
        for port in actor.input_ports:
            queue = queues[(actor.name, port)]
            if not queue:
                raise WorkflowError(
                    f"{actor.name}: firing without a token on {port!r}")
            inputs[port] = queue.popleft()
        dpapi, operator_ref = self.recorder.context_extras(actor)
        ctx = FiringContext(inputs=inputs, params=actor.params, sc=sc,
                            dpapi=dpapi, operator_ref=operator_ref)
        sc.compute(actor.cpu_seconds())
        actor.fire(ctx)
        self.firings += 1
        self.recorder.actor_fired(actor, ctx)
        for port, value in ctx._emitted:
            if port not in actor.output_ports:
                raise WorkflowError(
                    f"{actor.name}: emitted on unknown port {port!r}")
            self._deliver(actor, port, value, queues)

    def _deliver(self, src: Actor, port: str, value, queues) -> None:
        token = Token(value, producer=src.name)
        for dst_name, dst_port in self.workflow.receivers(src.name, port):
            dst = self.workflow.actor(dst_name)
            queues[(dst_name, dst_port)].append(token)
            self.recorder.token_transferred(src, dst, token)


def run_workflow(system, workflow: Workflow, recording: Optional[str] = "pass",
                 iterations: int = 1, text_log: str = "/pass/kepler.log",
                 engine_path: str = "/pass/bin/kepler"):
    """Run a workflow as a 'kepler' process on a simulated machine.

    ``recording``: None (no recording), "text", "database", or "pass".
    Returns the Director (and, for the database backend, leaves the rows
    on ``director.recorder.rows``).
    """
    holder: dict[str, Director] = {}

    def kepler_program(sc):
        if recording == "pass":
            recorder: Recorder = PassRecorder(sc)
        elif recording == "text":
            recorder = TextRecorder(sc, text_log)
        elif recording == "database":
            recorder = DatabaseRecorder()
        elif recording is None:
            recorder = Recorder()
        else:
            raise WorkflowError(f"unknown recording backend: {recording!r}")
        director = Director(workflow, recorder)
        holder["director"] = director
        director.run(sc, iterations=iterations)
        return 0

    if not system.kernel.vfs.exists(engine_path):
        system.register_program(engine_path, kepler_program)
        system.run(engine_path, argv=["kepler", workflow.name])
    else:
        system.run(engine_path, argv=["kepler", workflow.name],
                   program=kepler_program)
    return holder["director"]
