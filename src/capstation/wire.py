"""Wire formats: tagged JSON for edges and values, JSON-lines traces.

Edge serialization reproduces the established fixture structure exactly:
type tags ("EdgeAnnotated", "Component", "FestoStateCorrelation",
"FestoStateConstraint", "TimeDuration", "TimeDurationRange", "SS Variable",
"SS Addition", "SS Constant"), key order (type, source, target, annotation),
and plain integer constants.  The scalar tags contain a space on purpose.

State specifications inside annotations carry no signal field (the
don't-care level is implied); concrete event states always carry one.
"""

from __future__ import annotations

import json
from typing import Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from .core.bemap import BeMapKV, ComponentId, ComponentValue, ValueKind
from .core.geometry import Box3D
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .core.terms import Atom, Xor
from .core.timing import Addition, Constant, TimeDuration, TimeDurationRange, TimePoint, Variable
from .devices import (
    DeviceKind,
    DeviceState,
    KNOWN_STATE_NAMES,
    PhysicalEvent,
    Signal,
    SignalMapping,
    abstract_state,
)
from .errors import (
    MalformedJsonError,
    OutOfOrderEventError,
    SchemaViolationError,
    UnknownDeviceError,
    UnknownTypeTagError,
    UnsupportedAnnotationError,
)
from .simulator import Command, CommandScript, DropEvents, FaultSpec, LatencyOverride, StuckSensor


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaViolationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    for key in required:
        if key not in obj:
            raise SchemaViolationError(path, f"missing key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaViolationError(path, f"unexpected key {key!r}")


def _tag(obj: dict, path: str) -> str:
    if "type" not in obj:
        raise SchemaViolationError(path, "missing key 'type'")
    tag = obj["type"]
    if not isinstance(tag, str):
        raise SchemaViolationError(path, "'type' must be a string")
    return tag


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolationError(path, f"expected an integer, got {value!r}")
    return value


def _read_text(source: Union[str, TextIO]) -> str:
    """Whole text of a path or a readable file-like object."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as fp:
        return fp.read()


def _write_text(target: Union[str, TextIO], text: str) -> None:
    """Write text to a path or a writable file-like object."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fp:
            fp.write(text)


def _json_lines(text: str) -> Iterator[Tuple[int, object]]:
    """(line number, decoded value) of every non-blank JSON line."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield number, json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedJsonError(f"line {number}: {exc}", line=number) from exc


# -- states --------------------------------------------------------------------


def state_to_obj(state: DeviceState) -> dict:
    out: dict = {"type": state.name}
    if state.signal is not Signal.DONT_CARE:
        out["signal"] = state.signal.value
    return out


def state_from_obj(value, path: str = "state", require_signal: bool = False) -> DeviceState:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag not in KNOWN_STATE_NAMES:
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type"], ["signal"])
    if "signal" not in obj:
        if require_signal:
            raise SchemaViolationError(path, "event state requires a signal")
        return abstract_state(tag)
    level = obj["signal"]
    if level not in (Signal.HIGH.value, Signal.LOW.value):
        raise SchemaViolationError(path, f"signal must be High or Low, got {level!r}")
    return DeviceState(tag, Signal(level))


# -- symbolic scalars and durations --------------------------------------------


def scalar_to_obj(expr) -> dict:
    if isinstance(expr, Constant):
        return {"type": "SS Constant", "expression": expr.value}
    if isinstance(expr, Variable):
        if not isinstance(expr.ref, DeviceState):
            raise UnsupportedAnnotationError(
                f"only state-specification variables serialize, got {expr.ref!r}"
            )
        return {"type": "SS Variable", "expression": state_to_obj(expr.ref)}
    if isinstance(expr, Addition):
        return {"type": "SS Addition", "expression": [scalar_to_obj(op) for op in expr.operands]}
    raise UnsupportedAnnotationError(f"not a symbolic scalar: {expr!r}")


def scalar_from_obj(value, path: str = "scalar"):
    obj = _obj(value, path)
    tag = _tag(obj, path)
    _check_keys(obj, path, ["type", "expression"])
    expression = obj["expression"]
    if tag == "SS Constant":
        return Constant(_int(expression, f"{path}.expression"))
    if tag == "SS Variable":
        return Variable(state_from_obj(expression, f"{path}.expression"))
    if tag == "SS Addition":
        if not isinstance(expression, list) or len(expression) < 2:
            raise SchemaViolationError(f"{path}.expression", "expected a list of two or more")
        return Addition(
            tuple(scalar_from_obj(op, f"{path}.expression[{i}]") for i, op in enumerate(expression))
        )
    raise UnknownTypeTagError(tag)


def duration_to_obj(duration: TimeDuration) -> dict:
    return {
        "type": "TimeDuration",
        "start": scalar_to_obj(duration.start),
        "scalar": scalar_to_obj(duration.scalar),
    }


def duration_from_obj(value, path: str = "duration") -> TimeDuration:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "TimeDuration":
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type", "start", "scalar"])
    return TimeDuration(
        start=scalar_from_obj(obj["start"], f"{path}.start"),
        scalar=scalar_from_obj(obj["scalar"], f"{path}.scalar"),
    )


def duration_range_to_obj(window: TimeDurationRange) -> dict:
    return {
        "type": "TimeDurationRange",
        "minimum": duration_to_obj(window.minimum),
        "maximum": duration_to_obj(window.maximum),
    }


def duration_range_from_obj(value, path: str = "durationRange") -> TimeDurationRange:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "TimeDurationRange":
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type", "minimum", "maximum"])
    return TimeDurationRange(
        minimum=duration_from_obj(obj["minimum"], f"{path}.minimum"),
        maximum=duration_from_obj(obj["maximum"], f"{path}.maximum"),
    )


# -- rule annotations and edges -------------------------------------------------


def annotation_to_obj(annotation) -> dict:
    if isinstance(annotation, TemporalCorrelation):
        if not isinstance(annotation.cause, DeviceState):
            raise UnsupportedAnnotationError("annotation states must be device states")
        return {
            "type": "FestoStateCorrelation",
            "cause": state_to_obj(annotation.cause),
            "duration": duration_to_obj(annotation.duration),
            "effect": state_to_obj(annotation.effect),
        }
    if isinstance(annotation, TemporalConstraint):
        if not isinstance(annotation.cause, DeviceState):
            raise UnsupportedAnnotationError("annotation states must be device states")
        out = {
            "type": "FestoStateConstraint",
            "cause": state_to_obj(annotation.cause),
            "durationRange": duration_range_to_obj(annotation.range),
            "effect": state_to_obj(annotation.effect),
        }
        if annotation.inverse:
            out["inverse"] = True
        return out
    raise UnsupportedAnnotationError(f"unsupported annotation: {annotation!r}")


def annotation_from_obj(value, path: str = "annotation"):
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag == "FestoStateCorrelation":
        _check_keys(obj, path, ["type", "cause", "duration", "effect"])
        return TemporalCorrelation(
            cause=state_from_obj(obj["cause"], f"{path}.cause"),
            duration=duration_from_obj(obj["duration"], f"{path}.duration"),
            effect=state_from_obj(obj["effect"], f"{path}.effect"),
        )
    if tag == "FestoStateConstraint":
        _check_keys(obj, path, ["type", "cause", "durationRange", "effect"], ["inverse"])
        inverse = obj.get("inverse", False)
        if not isinstance(inverse, bool):
            raise SchemaViolationError(f"{path}.inverse", "expected a boolean")
        return TemporalConstraint(
            cause=state_from_obj(obj["cause"], f"{path}.cause"),
            range=duration_range_from_obj(obj["durationRange"], f"{path}.durationRange"),
            effect=state_from_obj(obj["effect"], f"{path}.effect"),
            inverse=inverse,
        )
    raise UnknownTypeTagError(tag)


def _component_to_obj(component: ComponentId) -> dict:
    return {"type": "Component", "id": component.id}


def _component_from_obj(value, path: str) -> ComponentId:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "Component":
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type", "id"])
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise SchemaViolationError(f"{path}.id", "expected a non-empty string")
    return ComponentId(obj["id"])


def edge_to_obj(edge: EdgeAnn) -> dict:
    if edge.annotation is None:
        raise UnsupportedAnnotationError("cannot serialize an edge without an annotation")
    return {
        "type": "EdgeAnnotated",
        "source": _component_to_obj(edge.source),
        "target": _component_to_obj(edge.target),
        "annotation": annotation_to_obj(edge.annotation),
    }


def edge_from_obj(value, path: str = "edge") -> EdgeAnn:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "EdgeAnnotated":
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type", "source", "target", "annotation"])
    return EdgeAnn(
        source=_component_from_obj(obj["source"], f"{path}.source"),
        target=_component_from_obj(obj["target"], f"{path}.target"),
        annotation=annotation_from_obj(obj["annotation"], f"{path}.annotation"),
    )


def edge_from_json(text: str) -> EdgeAnn:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(str(exc)) from exc
    return edge_from_obj(value)


def graph_to_obj(graph: AnnotatedGraph) -> list:
    return [edge_to_obj(edge) for edge in graph.edges]


def graph_from_obj(value, path: str = "topology") -> AnnotatedGraph:
    if not isinstance(value, list):
        raise SchemaViolationError(path, "expected a list of edges")
    return AnnotatedGraph(
        tuple(edge_from_obj(item, f"{path}[{i}]") for i, item in enumerate(value))
    )


# -- live events and traces ------------------------------------------------------


def event_to_obj(event: PhysicalEvent) -> dict:
    return {
        "type": "PhysicalEvent",
        "component": event.device.id,
        "timepoint": event.timepoint.t,
        "state": state_to_obj(event.state),
    }


def event_from_obj(
    value, kinds: Mapping[ComponentId, DeviceKind], path: str = "event"
) -> PhysicalEvent:
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "PhysicalEvent":
        raise UnknownTypeTagError(tag)
    _check_keys(obj, path, ["type", "component", "timepoint", "state"])
    if not isinstance(obj["component"], str) or not obj["component"]:
        raise SchemaViolationError(f"{path}.component", "expected a non-empty string")
    device = ComponentId(obj["component"])
    if device not in kinds:
        raise UnknownDeviceError(device)
    return PhysicalEvent(
        device=device,
        kind=kinds[device],
        timepoint=TimePoint(_int(obj["timepoint"], f"{path}.timepoint")),
        state=state_from_obj(obj["state"], f"{path}.state", require_signal=True),
    )


def _default_kinds() -> Mapping[ComponentId, DeviceKind]:
    from .station import build_catalog

    return build_catalog().devices


def write_trace(target: Union[str, TextIO], events: Sequence[PhysicalEvent]) -> None:
    """Write events as JSON lines; events must be time-ordered."""
    last = None
    lines = []
    for event in events:
        t = event.timepoint.t
        if last is not None and t < last:
            raise OutOfOrderEventError(f"event at {t} after event at {last}")
        last = t
        lines.append(json.dumps(event_to_obj(event)))
    _write_text(target, "".join(line + "\n" for line in lines))


def read_trace(
    source: Union[str, TextIO],
    kinds: Optional[Mapping[ComponentId, DeviceKind]] = None,
) -> List[PhysicalEvent]:
    """Read a JSON-lines trace, validating shape and monotone timestamps.

    Device kinds are resolved against the station catalog unless an
    explicit mapping is given.
    """
    text = _read_text(source)
    if kinds is None:
        kinds = _default_kinds()
    events: List[PhysicalEvent] = []
    last = None
    for number, value in _json_lines(text):
        event = event_from_obj(value, kinds, path=f"line {number}")
        if last is not None and event.timepoint.t < last:
            raise OutOfOrderEventError(
                f"line {number}: event at {event.timepoint.t} after {last}", line=number
            )
        last = event.timepoint.t
        events.append(event)
    return events


# -- scenario scripts and fault files ---------------------------------------------


def script_to_lines(script: CommandScript) -> str:
    return "".join(
        json.dumps(
            {"time_ms": cmd.time, "actuator": cmd.actuator.id, "signal": cmd.signal.value}
        )
        + "\n"
        for cmd in script.commands
    )


def write_script(target: Union[str, TextIO], script: CommandScript) -> None:
    _write_text(target, script_to_lines(script))


def read_script(source: Union[str, TextIO]) -> CommandScript:
    commands = []
    for number, value in _json_lines(_read_text(source)):
        obj = _obj(value, f"line {number}")
        _check_keys(obj, f"line {number}", ["time_ms", "actuator", "signal"])
        if obj["signal"] not in (Signal.HIGH.value, Signal.LOW.value):
            raise SchemaViolationError(f"line {number}.signal", "signal must be High or Low")
        commands.append(
            Command(
                time=_int(obj["time_ms"], f"line {number}.time_ms"),
                actuator=ComponentId(obj["actuator"]),
                signal=Signal(obj["signal"]),
            )
        )
    return CommandScript(tuple(commands))


def faults_from_obj(value) -> List[FaultSpec]:
    if not isinstance(value, list):
        raise SchemaViolationError("faults", "expected a list")
    out: List[FaultSpec] = []
    for i, item in enumerate(value):
        path = f"faults[{i}]"
        obj = _obj(item, path)
        kind = obj.get("fault")
        if kind == "latency-override":
            _check_keys(obj, path, ["fault", "device", "latency_ms"], ["transition"])
            latency_ms = _int(obj["latency_ms"], f"{path}.latency_ms")
            if latency_ms < 0:
                raise SchemaViolationError(
                    f"{path}.latency_ms", f"must be non-negative, got {latency_ms}"
                )
            out.append(
                LatencyOverride(
                    device=ComponentId(obj["device"]),
                    latency_ms=latency_ms,
                    transition=obj.get("transition"),
                )
            )
        elif kind == "stuck-sensor":
            _check_keys(obj, path, ["fault", "device", "state"])
            name = obj["state"]
            if name not in KNOWN_STATE_NAMES:
                raise UnknownTypeTagError(name)
            out.append(StuckSensor(device=ComponentId(obj["device"]), state=abstract_state(name)))
        elif kind == "drop-events":
            _check_keys(obj, path, ["fault", "device"])
            out.append(DropEvents(device=ComponentId(obj["device"])))
        else:
            raise UnknownTypeTagError(kind)
    return out


def read_faults(source: Union[str, TextIO]) -> List[FaultSpec]:
    try:
        value = json.loads(_read_text(source))
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(str(exc)) from exc
    return faults_from_obj(value)


# -- component values, descriptions and the catalog dump ---------------------------


def _signal_mapping_to_obj(mapping: SignalMapping) -> dict:
    return {
        Signal.HIGH.value: state_to_obj(mapping.high),
        Signal.LOW.value: state_to_obj(mapping.low),
    }


def _signal_mapping_from_obj(value, path: str) -> SignalMapping:
    obj = _obj(value, path)
    _check_keys(obj, path, [Signal.HIGH.value, Signal.LOW.value])
    return SignalMapping(
        high=state_from_obj(obj[Signal.HIGH.value], f"{path}.High", require_signal=True),
        low=state_from_obj(obj[Signal.LOW.value], f"{path}.Low", require_signal=True),
    )


def component_value_to_obj(value: ComponentValue) -> dict:
    kind = value.kind
    if kind is ValueKind.STRING or kind is ValueKind.INTEGER:
        return {"kind": kind.value, "value": value.value}
    if kind is ValueKind.BOX:
        b = value.value
        return {"kind": kind.value, "value": [b.x1, b.y1, b.z1, b.x2, b.y2, b.z2]}
    if kind is ValueKind.SIGNAL_MAP:
        return {"kind": kind.value, "value": _signal_mapping_to_obj(value.value)}
    if kind is ValueKind.VARIATIONS:
        positions = []
        for term in value.value.terms:
            if not isinstance(term, Atom) or not isinstance(term.payload, ComponentValue):
                raise UnsupportedAnnotationError("variation members must be wrapped values")
            positions.append(term.payload.value)
        return {"kind": kind.value, "value": positions}
    if kind is ValueKind.STATE:
        return {"kind": kind.value, "value": state_to_obj(value.value)}
    raise UnsupportedAnnotationError(f"unsupported value kind: {kind}")


def component_value_from_obj(value, path: str = "value") -> ComponentValue:
    obj = _obj(value, path)
    _check_keys(obj, path, ["kind", "value"])
    kind = obj["kind"]
    payload = obj["value"]
    if kind == ValueKind.STRING.value:
        if not isinstance(payload, str):
            raise SchemaViolationError(f"{path}.value", "expected a string")
        return ComponentValue(payload)
    if kind == ValueKind.INTEGER.value:
        return ComponentValue(_int(payload, f"{path}.value"))
    if kind == ValueKind.BOX.value:
        if not isinstance(payload, list) or len(payload) != 6:
            raise SchemaViolationError(f"{path}.value", "expected six coordinates")
        coords = [_int(c, f"{path}.value[{i}]") for i, c in enumerate(payload)]
        return ComponentValue(Box3D(*coords))
    if kind == ValueKind.SIGNAL_MAP.value:
        return ComponentValue(_signal_mapping_from_obj(payload, f"{path}.value"))
    if kind == ValueKind.VARIATIONS.value:
        if not isinstance(payload, list):
            raise SchemaViolationError(f"{path}.value", "expected a list of positions")
        return ComponentValue(Xor(tuple(Atom(ComponentValue(p)) for p in payload)))
    if kind == ValueKind.STATE.value:
        return ComponentValue(state_from_obj(payload, f"{path}.value"))
    raise UnknownTypeTagError(kind)


def description_to_obj(description: BeMapKV) -> list:
    return [
        {"key": key.id, "value": component_value_to_obj(value)}
        for key, value in description.entries
    ]


def description_from_obj(value, path: str = "description") -> BeMapKV:
    if not isinstance(value, list):
        raise SchemaViolationError(path, "expected a list of entries")
    entries = []
    for i, item in enumerate(value):
        obj = _obj(item, f"{path}[{i}]")
        _check_keys(obj, f"{path}[{i}]", ["key", "value"])
        entries.append(
            (ComponentId(obj["key"]), component_value_from_obj(obj["value"], f"{path}[{i}].value"))
        )
    return BeMapKV(tuple(entries))


def catalog_to_obj(catalog) -> dict:
    return {
        "devices": {d.id: k.value for d, k in catalog.devices.items()},
        "descriptions": {
            d.id: description_to_obj(desc) for d, desc in catalog.descriptions.items()
        },
        "topologies": {
            name.value: graph_to_obj(graph) for name, graph in catalog.topologies.items()
        },
        "synthetic_edges": sorted(
            [t.value, s.id, g.id, c, e] for t, s, g, c, e in catalog.synthetic_edges
        ),
        "synthetic_entries": sorted([d.id, k.id] for d, k in catalog.synthetic_entries),
    }


# -- monitor verdicts ---------------------------------------------------------------


def verdict_to_obj(verdict) -> dict:
    return {
        "topology": verdict.rule.topology,
        "source": verdict.rule.source.id,
        "target": verdict.rule.target.id,
        "cause": verdict.rule.cause.name,
        "effect": verdict.rule.effect.name,
        "window_ms": [verdict.rule.min_ms, verdict.rule.max_ms],
        "inverse": verdict.rule.inverse,
        "kind": verdict.rule.kind.value,
        "cause_event": event_to_obj(verdict.cause_event),
        "window": [verdict.window[0], verdict.window[1]],
        "outcome": verdict.outcome.value,
        "witness": None if verdict.witness is None else event_to_obj(verdict.witness),
        "decided_at": verdict.decided_at,
    }
