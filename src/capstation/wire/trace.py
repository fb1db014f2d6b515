"""The trace reader: JSON-lines traces, read back into live events.

The monitor process runs this part; the simulate process, which only
writes traces, never loads it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, TextIO, Tuple, Union

from ..core.bemap import ComponentId
from ..core.timing import TimePoint
from ..devices import KNOWN_STATE_NAMES, DeviceKind, DeviceState, PhysicalEvent
from ..errors import OutOfOrderEventError, SchemaViolationError, UnknownDeviceError, UnknownTypeTagError
from ..station import SIGNAL_MAPPINGS
from .common import _SIGNALS, _TIMEPOINT, _around_time, _check_keys, _component, _event_text, _int
from .common import _json_int, _json_line, _numbered_lines, _obj


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
    if state.name != allowed.name:  # the signal is the same by construction
        raise SchemaViolationError(
            path, f"{device} cannot be {state.name}/{state.signal.value}; its states are "
            f"{mapping.high.name}/High and {mapping.low.name}/Low",
        )
    return allowed


def read_trace(
    source: Union[str, TextIO], kinds: Mapping[ComponentId, DeviceKind]
) -> Iterator[PhysicalEvent]:
    """Yield the events of a JSON-lines trace (a path, `-` or a file object)
    as its lines are read, validating shape, states and monotone timestamps.
    An error names its line and stops the stream; the events before it have
    been yielded.

    Device kinds are resolved against `kinds`, usually `catalog.devices`.
    An event's state must be one of the two of its device's signal mapping
    in the station model; a device that `kinds` calls a part has none, and
    one the station does not have is not checked for it.

    The first line of each (device, state) goes through json.loads and
    `event_from_obj`.  A later line is matched by its text first: it is cut
    at `"timepoint": ` and at the next comma, and if the text on both sides
    is write_trace's own text of an event read before and the digits match
    JSON's integer grammar in ASCII and are few enough for int(), it is read
    without json.loads, sharing that event's device, kind and state.  Any
    other line goes through json.loads and `event_from_obj`, so every error
    comes from them, with its line.
    """
    templates: Dict[Tuple[str, str], PhysicalEvent] = {}  # by the writer's text around the time
    texts: dict = {}  # _event_text's cache
    last = None
    for number, line in _numbered_lines(source):
        around, digits = _around_time(line, _TIMEPOINT)
        seen = templates.get(around)
        t = None if seen is None else _json_int(digits)
        if t is None:
            seen = event_from_obj(_json_line(number, line), kinds, f"line {number}")
            templates[_around_time(_event_text(texts, seen, None), _TIMEPOINT)[0]] = seen
            t = seen.timepoint.t
        if last is not None and t < last:
            raise OutOfOrderEventError(f"line {number}: event at {t} after {last}", line=number)
        last = t
        yield PhysicalEvent(seen.device, seen.kind, TimePoint(t), seen.state)
