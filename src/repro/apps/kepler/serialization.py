"""Workflow (de)serialization -- the MoML analog, in JSON.

Kepler persists workflows as MoML documents; ours serialize to a JSON
structure listing actors (by registered type name), their parameters,
and the channel wiring::

    {
      "name": "simple",
      "actors": [
        {"type": "FileSource", "name": "src", "params": {"path": "/in"}},
        {"type": "FileSink",   "name": "sink", "params": {"path": "/out"}}
      ],
      "channels": [["src", "out", "sink", "in"]]
    }

Only JSON-representable parameters survive a round trip; callables
(e.g. a Transformer's ``fn``) must be re-supplied at load time through
``param_overrides``.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.apps.kepler import actors as actor_library
from repro.apps.kepler import challenge
from repro.apps.kepler.actors import Actor
from repro.apps.kepler.workflow import Workflow
from repro.core.errors import WorkflowError

#: Registered actor types, by class name.
ACTOR_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        actor_library.FileSource,
        actor_library.FileSink,
        actor_library.Transformer,
        actor_library.Combiner,
        actor_library.LineParser,
        actor_library.ColumnExtractor,
        actor_library.ExpressionEvaluator,
        challenge.AlignWarp,
        challenge.Reslice,
        challenge.Softmean,
        challenge.Slicer,
        challenge.Convert,
    )
}


def register_actor_type(cls: type) -> type:
    """Add a custom actor class to the registry (usable as decorator)."""
    if not issubclass(cls, Actor):
        raise WorkflowError(f"{cls.__name__} is not an Actor subclass")
    # Registration API, exercised at import/composition time by user
    # code -- never on the record hot path.
    ACTOR_TYPES[cls.__name__] = cls
    return cls


def workflow_to_dict(workflow: Workflow) -> dict:
    """Serializable description of a workflow.

    Non-JSON parameters are replaced by the marker
    ``{"__callable__": <name>}`` and must be overridden on load.
    """
    actors = []
    for actor in workflow.actors():
        params = {}
        for key, value in actor.params.items():
            if callable(value):
                params[key] = {"__callable__": getattr(value, "__name__",
                                                       "anonymous")}
            else:
                params[key] = value
        actors.append({
            "type": type(actor).__name__,
            "name": actor.name,
            "params": params,
        })
    channels = []
    for actor in workflow.actors():
        for port in actor.output_ports:
            for dst, dst_port in workflow.receivers(actor.name, port):
                channels.append([actor.name, port, dst, dst_port])
    return {"name": workflow.name, "actors": actors, "channels": channels}


def workflow_from_dict(spec: dict,
                       param_overrides: Optional[dict] = None) -> Workflow:
    """Rebuild a workflow from :func:`workflow_to_dict` output.

    ``param_overrides`` maps ``"actor.param"`` to a value (typically a
    callable a Transformer needs back).
    """
    overrides = dict(param_overrides or {})
    try:
        workflow = Workflow(spec["name"])
        actor_specs = spec["actors"]
        channel_specs = spec["channels"]
    except (KeyError, TypeError) as exc:
        raise WorkflowError(f"malformed workflow spec: {exc}") from exc

    for actor_spec in actor_specs:
        type_name = actor_spec.get("type")
        cls = ACTOR_TYPES.get(type_name)
        if cls is None:
            raise WorkflowError(f"unknown actor type {type_name!r}")
        name = actor_spec["name"]
        params = {}
        for key, value in (actor_spec.get("params") or {}).items():
            override = overrides.pop(f"{name}.{key}", None)
            if override is not None:
                params[key] = override
            elif isinstance(value, dict) and "__callable__" in value:
                raise WorkflowError(
                    f"{name}.{key} was a callable "
                    f"({value['__callable__']}); supply it via "
                    f"param_overrides")
            else:
                params[key] = value
        # Combiner's arity is a constructor argument, not a plain param.
        if cls is actor_library.Combiner:
            arity = params.pop("arity", 2)
            workflow.add(cls(name, arity=arity, **params))
        else:
            workflow.add(cls(name, **params))
    for src, src_port, dst, dst_port in channel_specs:
        workflow.connect(src, src_port, dst, dst_port)
    if overrides:
        raise WorkflowError(f"unused param_overrides: {sorted(overrides)}")
    return workflow


def dumps(workflow: Workflow, indent: int = 2) -> str:
    """Workflow -> JSON text."""
    return json.dumps(workflow_to_dict(workflow), indent=indent)


def loads(text: str,
          param_overrides: Optional[dict] = None) -> Workflow:
    """JSON text -> Workflow."""
    return workflow_from_dict(json.loads(text), param_overrides)
