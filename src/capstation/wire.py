"""Wire formats: tagged JSON for edges and values (written only), and
JSON-lines traces, scenario scripts and fault files (read and written).

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
from typing import Iterator, List, Mapping, Sequence, TextIO, Tuple, Union

from .core.bemap import BeMapKV, ComponentId, ComponentValue, ValueKind
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .core.terms import Atom
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
from .simulator import ACTIVATE, DEACTIVATE, Command, CommandScript, DropEvents, FaultSpec
from .simulator import LatencyOverride, StuckSensor
from .station import ACTUATORS


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


def _component(value, path: str) -> ComponentId:
    if not isinstance(value, str) or not value:
        raise SchemaViolationError(path, "expected a non-empty string")
    return ComponentId(value)


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


def state_from_obj(value, path: str) -> DeviceState:
    """A concrete event state; unlike a state specification it needs a signal."""
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag not in KNOWN_STATE_NAMES:
        raise UnknownTypeTagError(tag, path)
    _check_keys(obj, path, ["type", "signal"])
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


def duration_to_obj(duration: TimeDuration) -> dict:
    return {
        "type": "TimeDuration",
        "start": scalar_to_obj(duration.start),
        "scalar": scalar_to_obj(duration.scalar),
    }


def duration_range_to_obj(window: TimeDurationRange) -> dict:
    return {
        "type": "TimeDurationRange",
        "minimum": duration_to_obj(window.minimum),
        "maximum": duration_to_obj(window.maximum),
    }


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


def _component_to_obj(component: ComponentId) -> dict:
    return {"type": "Component", "id": component.id}


def edge_to_obj(edge: EdgeAnn) -> dict:
    if edge.annotation is None:
        raise UnsupportedAnnotationError("cannot serialize an edge without an annotation")
    return {
        "type": "EdgeAnnotated",
        "source": _component_to_obj(edge.source),
        "target": _component_to_obj(edge.target),
        "annotation": annotation_to_obj(edge.annotation),
    }


def graph_to_obj(graph: AnnotatedGraph) -> list:
    return [edge_to_obj(edge) for edge in graph.edges]


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
        raise UnknownTypeTagError(tag, path)
    _check_keys(obj, path, ["type", "component", "timepoint", "state"])
    device = _component(obj["component"], f"{path}.component")
    if device not in kinds:
        raise UnknownDeviceError(device, f"{path}.component")
    return PhysicalEvent(
        device=device,
        kind=kinds[device],
        timepoint=TimePoint(_int(obj["timepoint"], f"{path}.timepoint")),
        state=state_from_obj(obj["state"], f"{path}.state"),
    )


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
    source: Union[str, TextIO], kinds: Mapping[ComponentId, DeviceKind]
) -> List[PhysicalEvent]:
    """Read a JSON-lines trace, validating shape and monotone timestamps.

    Device kinds are resolved against `kinds`, usually `catalog.devices`.
    """
    text = _read_text(source)
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


_ACTUATOR_IDS = frozenset(actuator.id for actuator in ACTUATORS)


def read_script(source: Union[str, TextIO]) -> CommandScript:
    commands: List[Command] = []
    for number, value in _json_lines(_read_text(source)):
        path = f"line {number}"
        obj = _obj(value, path)
        _check_keys(obj, path, ["time_ms", "actuator", "signal"])
        if obj["signal"] not in (Signal.HIGH.value, Signal.LOW.value):
            raise SchemaViolationError(f"{path}.signal", "signal must be High or Low")
        time = _int(obj["time_ms"], f"{path}.time_ms")
        if commands and time < commands[-1].time:
            raise SchemaViolationError(
                path, f"time_ms {time} is earlier than the previous line's {commands[-1].time}"
            )
        actuator = _component(obj["actuator"], f"{path}.actuator")
        if actuator.id not in _ACTUATOR_IDS:
            raise SchemaViolationError(f"{path}.actuator", f"unknown actuator: {actuator}")
        commands.append(Command(time=time, actuator=actuator, signal=Signal(obj["signal"])))
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
            transition = obj.get("transition")
            if transition not in (None, ACTIVATE, DEACTIVATE):
                raise SchemaViolationError(
                    f"{path}.transition", f"must be activate or deactivate, got {transition!r}"
                )
            out.append(
                LatencyOverride(
                    device=_component(obj["device"], f"{path}.device"),
                    latency_ms=latency_ms,
                    transition=transition,
                )
            )
        elif kind == "stuck-sensor":
            _check_keys(obj, path, ["fault", "device", "state"])
            name = obj["state"]
            if not isinstance(name, str) or name not in KNOWN_STATE_NAMES:
                raise SchemaViolationError(f"{path}.state", f"unknown state {name!r}")
            device = _component(obj["device"], f"{path}.device")
            out.append(StuckSensor(device=device, state=abstract_state(name)))
        elif kind == "drop-events":
            _check_keys(obj, path, ["fault", "device"])
            out.append(DropEvents(device=_component(obj["device"], f"{path}.device")))
        else:
            raise SchemaViolationError(f"{path}.fault", f"unknown fault kind {kind!r}")
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


def description_to_obj(description: BeMapKV) -> list:
    return [
        {"key": key.id, "value": component_value_to_obj(value)}
        for key, value in description.entries
    ]


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
