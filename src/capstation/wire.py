"""Wire formats: tagged JSON for edges and values (written only), and
JSON-lines traces, scenario scripts and fault files (read and written).

Edge serialization reproduces the established fixture structure exactly:
type tags ("EdgeAnnotated", "Component", "FestoStateCorrelation",
"FestoStateConstraint", "TimeDuration", "TimeDurationRange", "SS Variable",
"SS Addition", "SS Constant"), key order (type, source, target, annotation),
and plain integer constants.  The scalar tags contain a space on purpose.

State specifications inside annotations carry no signal field (the
don't-care level is implied); concrete event states always carry one.

Traces stream: `write_trace` writes each event as it comes, `read_trace`
yields each event as its line is read, and `write_report` writes the
report one verdict at a time; none holds the whole trace or report.  The
writers render each rule's and (device, state)'s text once, by json.dumps.
The trace and script readers are their inverse: once json.loads and the
checks have read an event of a (device, state), or a command of an
(actuator, signal), a later line that is the writer's text of it around a
JSON integer in ASCII is read from that text alone.  Every other line is
read through json.loads, so every error is the one that path raises.
"""

from __future__ import annotations

import contextlib
import json
import re
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from .core.bemap import BeMapKV, ComponentId, ComponentValue, ValueKind
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .core.timing import TimeDuration, TimeDurationRange, TimePoint
from .devices import ACTIVATE, DEACTIVATE, KNOWN_STATE_NAMES, Command, DeviceKind, DeviceState
from .devices import DropEvents, FaultSpec, LatencyOverride, PhysicalEvent, Signal, SignalMapping
from .devices import StuckSensor, abstract_state
from .errors import (
    MalformedJsonError,
    OutOfOrderEventError,
    SchemaViolationError,
    UnknownDeviceError,
    UnknownTypeTagError,
    UnsupportedAnnotationError,
)
from .station import ACTUATORS, SIGNAL_MAPPINGS


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


def _lines(source: Union[str, TextIO]) -> Iterator[str]:
    """The lines of a path or a readable file-like object, read lazily."""
    if hasattr(source, "read"):
        yield from source
    else:
        with open(source, "r", encoding="utf-8") as fp:
            yield from fp


@contextlib.contextmanager
def _opened(target: Union[str, TextIO]) -> Iterator[TextIO]:
    """A writable file-like object as it is, or a path opened for writing."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", encoding="utf-8") as fp:
            yield fp


def _write_text(target: Union[str, TextIO], text: str) -> None:
    """Write text to a path or a writable file-like object."""
    with _opened(target) as fp:
        fp.write(text)


def _numbered_lines(chunks: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of every non-blank line.

    Lines are numbered as str.splitlines numbers the whole text: each line
    a file yields is split again, so a break other than a newline counts.
    """
    number = 0
    for chunk in chunks:
        for line in chunk.splitlines():
            number += 1
            if line.strip():
                yield number, line


def _json_line(number: int, line: str):
    """The value of one JSON line; an error names the line."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deeply nested
        raise MalformedJsonError(f"line {number}: {exc}", line=number) from exc


# -- states --------------------------------------------------------------------


def state_to_obj(state: DeviceState) -> dict:
    out: dict = {"type": state.name}
    if state.signal is not Signal.DONT_CARE:
        out["signal"] = state.signal.value
    return out


# a concrete signal by its wire name: one lookup both checks and converts
_SIGNALS = {"High": Signal.HIGH, "Low": Signal.LOW}


def state_from_obj(value, path: str) -> DeviceState:
    """A concrete event state; unlike a state specification it needs a signal."""
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag not in KNOWN_STATE_NAMES:
        raise UnknownTypeTagError(tag, path)
    _check_keys(obj, path, ["type", "signal"])
    level = obj["signal"]
    signal = _SIGNALS.get(level) if isinstance(level, str) else None
    if signal is None:
        raise SchemaViolationError(path, f"signal must be High or Low, got {level!r}")
    return DeviceState(tag, signal)


# -- durations ------------------------------------------------------------------


def duration_to_obj(duration: TimeDuration) -> dict:
    """The BeSpaceD form of an offset: from the anchor to anchor + offset."""
    if not isinstance(duration.anchor, DeviceState):
        raise UnsupportedAnnotationError(
            f"only state-specification variables serialize, got {duration.anchor!r}"
        )
    anchor = {"type": "SS Variable", "expression": state_to_obj(duration.anchor)}
    offset = {"type": "SS Constant", "expression": duration.offset_ms}
    return {
        "type": "TimeDuration",
        "start": anchor,
        "scalar": {"type": "SS Addition", "expression": [anchor, offset]},
    }


def duration_range_to_obj(window: TimeDurationRange) -> dict:
    return {
        "type": "TimeDurationRange",
        "minimum": duration_to_obj(window.minimum),
        "maximum": duration_to_obj(window.maximum),
    }


# -- rule annotations and edges -------------------------------------------------


def annotation_to_obj(annotation) -> dict:
    if not isinstance(annotation, (TemporalCorrelation, TemporalConstraint)):
        raise UnsupportedAnnotationError(f"unsupported annotation: {annotation!r}")
    if not all(isinstance(s, DeviceState) for s in (annotation.cause, annotation.effect)):
        raise UnsupportedAnnotationError("annotation states must be device states")
    if isinstance(annotation, TemporalCorrelation):
        return {
            "type": "FestoStateCorrelation",
            "cause": state_to_obj(annotation.cause),
            "duration": duration_to_obj(annotation.duration),
            "effect": state_to_obj(annotation.effect),
        }
    out = {
        "type": "FestoStateConstraint",
        "cause": state_to_obj(annotation.cause),
        "durationRange": duration_range_to_obj(annotation.range),
        "effect": state_to_obj(annotation.effect),
    }
    if annotation.inverse:
        out["inverse"] = True
    return out


def _component_to_obj(component: ComponentId) -> dict:
    return {"type": "Component", "id": component.id}


def edge_to_obj(edge: EdgeAnn) -> dict:
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
    """A live event on a device of `kinds`, in a state that device can be in."""
    obj = _obj(value, path)
    tag = _tag(obj, path)
    if tag != "PhysicalEvent":
        raise UnknownTypeTagError(tag, path)
    _check_keys(obj, path, ["type", "component", "timepoint", "state"])
    device = _component(obj["component"], f"{path}.component")
    if device not in kinds:
        raise UnknownDeviceError(device, f"{path}.component")
    kind = kinds[device]
    t = _int(obj["timepoint"], f"{path}.timepoint")
    state = _device_state(obj["state"], device, kind, f"{path}.state")
    return PhysicalEvent(device, kind, TimePoint(t), state)


def _device_state(value, device: ComponentId, kind: DeviceKind, path: str) -> DeviceState:
    """A concrete state `device` can be in: one of its signal mapping's two."""
    state = state_from_obj(value, path)
    mapping = SIGNAL_MAPPINGS.get(device)
    if mapping is None:
        if kind is DeviceKind.PART:
            raise SchemaViolationError(
                path, f"{device} cannot be {state.name}/{state.signal.value}; "
                "it is a part and has no states"
            )
        return state  # a device the station does not have
    allowed = mapping(state.signal)
    if state != allowed:
        raise SchemaViolationError(
            path, f"{device} cannot be {state.name}/{state.signal.value}; its states are "
            f"{mapping.high.name}/High and {mapping.low.name}/Low",
        )
    return allowed


_TIMEPOINT = '"timepoint": '  # the key before the one value the event templates leave open


def _event_text(cache: dict, event: PhysicalEvent, indent: Optional[int]) -> str:
    """json.dumps(event_to_obj(event), indent=indent), nested as in the report.
    The text on either side of the timepoint is rendered once per (device,
    state) into `cache`; names escape their quotes, so only the key is split."""
    # an event's signal is High or Low, never don't-care
    key = (event.device.id, event.state.name, event.state.signal is Signal.HIGH)
    halves = cache.get(key)
    if halves is None:
        obj = {**event_to_obj(event), "timepoint": 0}
        dump = json.dumps(obj, indent=indent).replace("\n", "\n    ")
        before, _, after = dump.partition(_TIMEPOINT + "0")
        halves = cache[key] = before + _TIMEPOINT, after
    return f"{halves[0]}{event.timepoint.t}{halves[1]}"


def write_trace(target: Union[str, TextIO], events: Iterable[PhysicalEvent]) -> None:
    """Write events as JSON lines, each as it comes; events must be time-ordered."""
    lines: Dict[Tuple[str, str, bool], Tuple[str, str]] = {}
    with _opened(target) as out:
        last = None
        for event in events:
            t = event.timepoint.t
            if last is not None and t < last:
                raise OutOfOrderEventError(f"event at {t} after event at {last}")
            last = t
            out.write(_event_text(lines, event, None) + "\n")


def _around_time(line: str, key: str) -> Tuple[Tuple[str, str], str]:
    """((text before, text after), digits): a line cut at the first `key`
    (a time's key and colon) and at the first comma after it."""
    head, _, rest = line.partition(key)
    digits, _, tail = rest.partition(",")
    return (head, tail), digits


# JSON's integer grammar, in ASCII digits only
_JSON_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")


def _json_int(text: str) -> Optional[int]:
    """The int json.loads reads from `text`, or None if it reads none or fails."""
    if _JSON_INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


_EVENT_KEYS = frozenset(("type", "component", "timepoint", "state"))
_STATE_KEYS = frozenset(("type", "signal"))


def _record_key(obj) -> Optional[Tuple[str, str, str]]:
    """(component, state type, signal) of an object with exactly an event's
    keys and type tag, an int timepoint and a state of exactly a type and a
    signal, all three strings; None for any other value."""
    if type(obj) is dict and obj.keys() == _EVENT_KEYS and obj["type"] == "PhysicalEvent":
        spec = obj["state"]
        if type(obj["timepoint"]) is int and type(spec) is dict and spec.keys() == _STATE_KEYS:
            key = obj["component"], spec["type"], spec["signal"]
            if type(key[0]) is type(key[1]) is type(key[2]) is str:
                return key
    return None


def read_trace(
    source: Union[str, TextIO], kinds: Mapping[ComponentId, DeviceKind]
) -> Iterator[PhysicalEvent]:
    """Yield the events of a JSON-lines trace as its lines are read,
    validating shape, states and monotone timestamps.  An error names its
    line and stops the stream; the events before it have been yielded.

    Device kinds are resolved against `kinds`, usually `catalog.devices`.
    An event's state must be one of the two of its device's signal mapping
    in the station model; a device that `kinds` calls a part has none, and
    one the station does not have is not checked for it.

    The first line of each (component, state type, signal) goes through
    json.loads and `event_from_obj`, and every later event of those three
    strings shares that event's device, kind and state.  A later line is
    matched by its text first: it is cut at `"timepoint": ` and at the next
    comma, and if the text on both sides is write_trace's own text of that
    event and the digits match JSON's integer grammar in ASCII and are few
    enough for int(), it is read without json.loads.  Any other line is
    decoded by json.loads; it shares the event of its three strings if the
    object has exactly an event's keys and type tag, an int timepoint and a
    state of exactly a type and a signal, and every other object goes
    through `event_from_obj`.
    So every error comes from json.loads or `event_from_obj`, with its line.
    """
    checked: Dict[Tuple[str, str, str], PhysicalEvent] = {}  # by the three strings
    templates: Dict[Tuple[str, str], PhysicalEvent] = {}  # by the writer's text around the time
    texts: dict = {}  # _event_text's cache
    last = None
    for number, line in _numbered_lines(_lines(source)):
        around, digits = _around_time(line, _TIMEPOINT)
        seen = templates.get(around)
        t = None if seen is None else _json_int(digits)
        if t is None:
            obj = _json_line(number, line)
            seen = checked.get(_record_key(obj))
            if seen is None:
                seen = event_from_obj(obj, kinds, f"line {number}")
                state = seen.state
                checked[seen.device.id, state.name, state.signal.value] = seen
                templates[_around_time(_event_text(texts, seen, None), _TIMEPOINT)[0]] = seen
            t = obj["timepoint"]
        if last is not None and t < last:
            raise OutOfOrderEventError(f"line {number}: event at {t} after {last}", line=number)
        last = t
        yield PhysicalEvent(seen.device, seen.kind, TimePoint(t), seen.state)


# -- scenario scripts and fault files ---------------------------------------------


def script_to_lines(script: Sequence[Command]) -> str:
    return "".join(
        json.dumps({"time_ms": time, "actuator": actuator.id, "signal": signal.value}) + "\n"
        for time, actuator, signal in script
    )


def write_script(target: Union[str, TextIO], script: Sequence[Command]) -> None:
    _write_text(target, script_to_lines(script))


_ACTUATORS_BY_ID = {actuator.id: actuator for actuator in ACTUATORS}
_TIME_MS = '"time_ms": '


def read_script(source: Union[str, TextIO]) -> Tuple[Command, ...]:
    """Read and check a whole script; its commands share the station's actuators.
    A line that is write_script's text of an (actuator, signal) an earlier
    line has checked, around a JSON integer, is read from that text alone."""
    commands: List[Command] = []
    checked: Dict[Tuple[str, str], Command] = {}  # by the writer's text around the time
    for number, line in _numbered_lines(_lines(source)):
        path = f"line {number}"
        around, digits = _around_time(line, _TIME_MS)
        seen = checked.get(around)
        time = None if seen is None else _json_int(digits)
        if time is None:
            seen = None
            obj = _obj(_json_line(number, line), path)
            _check_keys(obj, path, ["time_ms", "actuator", "signal"])
            level = obj["signal"]
            signal = _SIGNALS.get(level) if isinstance(level, str) else None
            if signal is None:
                raise SchemaViolationError(f"{path}.signal", "signal must be High or Low")
            time = _int(obj["time_ms"], f"{path}.time_ms")
        if commands and time < commands[-1].time:
            raise SchemaViolationError(
                path, f"time_ms {time} is earlier than the previous line's {commands[-1].time}"
            )
        if seen is None:  # read by json.loads: check the actuator, then seed the writer's text
            name = obj["actuator"]
            actuator = _ACTUATORS_BY_ID.get(name) if isinstance(name, str) else None
            if actuator is None:
                _component(name, f"{path}.actuator")  # a non-string or empty id has its own message
                raise SchemaViolationError(f"{path}.actuator", f"unknown actuator: {name}")
            seen = Command(time, actuator, signal)
            checked[_around_time(script_to_lines([seen])[:-1], _TIME_MS)[0]] = seen
        commands.append(Command(time, seen.actuator, seen.signal))
    return tuple(commands)


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


# a JSON string, or a number's integer, fraction and exponent parts
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?[0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')


def _unconvertible_int_line(text: str) -> Optional[int]:
    """The line of the first integer in JSON text that int() cannot convert."""
    for token in _JSON_TOKEN.finditer(text):
        if token[1] and not (token[2] or token[3]) and _json_int(token[1]) is None:
            return text.count("\n", 0, token.start()) + 1
    return None


def read_faults(source: Union[str, TextIO]) -> List[FaultSpec]:
    text = "".join(_lines(source))
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise MalformedJsonError(str(exc)) from exc
    except ValueError as exc:  # more digits than int() converts, with no place in the message
        line = _unconvertible_int_line(text)
        raise MalformedJsonError(f"line {line}: {exc}", line=line) from exc
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
        return {"kind": kind.value, "value": list(value.value.positions)}
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


def write_report(out: TextIO, verdicts: Iterable) -> Iterator:
    """Write the verdicts as the report, one at a time, yielding each once
    it is written.  Drained, it has written json.dumps(list, indent=2) of
    their verdict_to_obj objects and a newline."""
    heads: Dict[int, Tuple[object, str]] = {}  # by id(rule); the entry keeps the rule alive
    events: Dict[Tuple[str, str, bool], Tuple[str, str]] = {}
    outcomes: dict = {}  # the JSON text of each outcome
    sep = "[\n  "
    for verdict in verdicts:
        head = heads.get(id(verdict.rule))
        if head is None:  # the rule's keys, `topology` to `kind`
            text = json.dumps(verdict_to_obj(verdict), indent=2).replace("\n", "\n  ")
            head = heads[id(verdict.rule)] = verdict.rule, text.split(',\n    "cause_event"')[0]
        outcome = outcomes.get(verdict.outcome)
        if outcome is None:
            outcome = outcomes[verdict.outcome] = json.dumps(verdict.outcome.value)
        witness = "null" if verdict.witness is None else _event_text(events, verdict.witness, 2)
        out.write(
            f'{sep}{head[1]},\n    "cause_event": {_event_text(events, verdict.cause_event, 2)},\n'
            f'    "window": [\n      {verdict.window[0]},\n      {verdict.window[1]}\n    ],\n'
            f'    "outcome": {outcome},\n    "witness": {witness},\n'
            f'    "decided_at": {verdict.decided_at}\n  }}'
        )
        sep = ",\n  "
        yield verdict
    out.write("[]\n" if sep == "[\n  " else "\n]\n")
