"""The trace reader: JSON-lines traces, read back into live events.

The monitor process runs this part; the simulate process, which only
writes traces, never loads it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, TextIO, Tuple, Union

from ..core.bemap import ComponentId
from ..core.timing import TimePoint
from ..devices import KNOWN_STATE_NAMES, DeviceKind, DeviceState, PhysicalEvent
from ..errors import OutOfOrderEventError, SchemaViolationError, UnknownDeviceError, UnknownTypeTagError
from ..station import SIGNAL_MAPPINGS
from .common import _SIGNALS, _TIMEPOINT, _around_time, _check_keys, _component, _event_text, _int
from .common import _json_int, _json_line, _lines, _numbered_lines, _obj


def _tag(obj: dict, path: str) -> str:
    if "type" not in obj:
        raise SchemaViolationError(path, "missing key 'type'")
    tag = obj["type"]
    if not isinstance(tag, str):
        raise SchemaViolationError(path, "'type' must be a string")
    return tag


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
