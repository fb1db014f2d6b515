"""Device taxonomy, signal semantics, states, live events, and the
commands and plant faults that drive the simulator.

Devices are parts, actuators or sensors.  Every device in the modelled
station uses binary signalling, so a signal is High, Low, or the
don't-care placeholder used only inside abstract state specifications.
A state is identified by (name, signal); two states specification-match
when the names agree and either the signals agree or the specification
side doesn't care.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Union

from .core.bemap import ComponentId
from .core.record import Record
from .core.timing import TimePoint
from .errors import AbstractStateInEventError, DontCareInputError


class DeviceKind(enum.Enum):
    PART = "Part"
    ACTUATOR = "Actuator"
    SENSOR = "Sensor"


class Signal(enum.Enum):
    HIGH = "High"
    LOW = "Low"
    DONT_CARE = "Don't Care"


class DeviceState(Record):
    __slots__ = ("name", "signal")

    def __init__(self, name: str, signal: Signal):
        if not name:
            raise ValueError("state name must be non-empty")
        self._set(name, signal)


def abstract_state(name: str) -> DeviceState:
    return DeviceState(name, Signal.DONT_CARE)


# Solenoid actuator states
ACTIVE = abstract_state("Active")
ACTIVE_HIGH = DeviceState("Active", Signal.HIGH)
PASSIVE = abstract_state("Passive")
PASSIVE_LOW = DeviceState("Passive", Signal.LOW)

# Light and contact sensor states
OBSTRUCTED = abstract_state("Obstructed")
OBSTRUCTED_HIGH = DeviceState("Obstructed", Signal.HIGH)
OBSTRUCTED_LOW = DeviceState("Obstructed", Signal.LOW)
UNOBSTRUCTED = abstract_state("Unobstructed")
UNOBSTRUCTED_HIGH = DeviceState("Unobstructed", Signal.HIGH)
UNOBSTRUCTED_LOW = DeviceState("Unobstructed", Signal.LOW)

# Vacuum sensor states
GRIPPED = abstract_state("Gripped")
GRIPPED_HIGH = DeviceState("Gripped", Signal.HIGH)
RELEASED = abstract_state("Released")
RELEASED_LOW = DeviceState("Released", Signal.LOW)

KNOWN_STATE_NAMES = frozenset(
    {"Active", "Passive", "Obstructed", "Unobstructed", "Gripped", "Released"}
)


class SignalMapping(Record):
    """Per-device meaning of the two voltage levels.

    Total on {High, Low}; the two mapped states carry the matching concrete
    signal and distinct names.
    """

    __slots__ = ("high", "low")

    def __init__(self, high: DeviceState, low: DeviceState):
        if high.signal is not Signal.HIGH or low.signal is not Signal.LOW:
            raise ValueError("mapped states must carry their own signal level")
        if high.name == low.name:
            raise ValueError("mapped states must have distinct names")
        self._set(high, low)

    def __call__(self, signal: Signal) -> DeviceState:
        """Concrete state meant by a voltage level."""
        if signal is Signal.HIGH:
            return self.high
        if signal is Signal.LOW:
            return self.low
        raise DontCareInputError("cannot map the don't-care signal")

    def state_named(self, name: str) -> DeviceState:
        """Concrete state of this mapping with the given name."""
        if self.high.name == name:
            return self.high
        if self.low.name == name:
            return self.low
        raise ValueError(f"state {name!r} is not mapped by this device")


HIGH_SOLENOID_MAPPING = SignalMapping(high=ACTIVE_HIGH, low=PASSIVE_LOW)
OBSTRUCTED_ON_HIGH = SignalMapping(high=OBSTRUCTED_HIGH, low=UNOBSTRUCTED_LOW)
OBSTRUCTED_ON_LOW = SignalMapping(high=UNOBSTRUCTED_HIGH, low=OBSTRUCTED_LOW)
GRIP_SENSOR_MAPPING = SignalMapping(high=GRIPPED_HIGH, low=RELEASED_LOW)


def state_matches(spec: DeviceState, actual: DeviceState) -> bool:
    """Specification match: names equal, don't-care absorbs either signal."""
    if spec.name != actual.name:
        return False
    return spec.signal is Signal.DONT_CARE or spec.signal is actual.signal


class SpatialVariationSet(Record):
    """Mutually exclusive discrete positions a movable part can be in."""

    __slots__ = ("name", "positions")

    def __init__(self, name: str, positions: tuple):
        positions = tuple(positions)
        if len(positions) < 2:
            raise ValueError("a variation set needs at least two positions")
        if len(set(positions)) != len(positions):
            raise ValueError("positions must be pairwise distinct")
        self._set(name, positions)


class PhysicalEvent(Record):
    """A device changed to a concrete state at an instant in time."""

    __slots__ = ("device", "kind", "timepoint", "state")

    def __init__(
        self, device: ComponentId, kind: DeviceKind, timepoint: TimePoint, state: DeviceState
    ):
        if state.signal is Signal.DONT_CARE:
            raise AbstractStateInEventError(f"live event for {device} carries a don't-care state")
        set_device, set_kind, set_timepoint, set_state = self._setters
        set_device(self, device)
        set_kind(self, kind)
        set_timepoint(self, timepoint)
        set_state(self, state)


class Command(NamedTuple):
    """One script line; a script is any time-ordered sequence of these."""

    time: int
    actuator: ComponentId
    signal: Signal


# Transitions of an actuator, as the simulator's latency table keys them.
ACTIVATE = "activate"
DEACTIVATE = "deactivate"


class LatencyOverride(Record):
    __slots__ = ("device", "latency_ms", "transition")

    def __init__(self, device: ComponentId, latency_ms: int, transition: Optional[str] = None):
        self._set(device, latency_ms, transition)


class StuckSensor(Record):
    __slots__ = ("device", "state")

    def __init__(self, device: ComponentId, state: DeviceState):
        self._set(device, state)


class DropEvents(Record):
    __slots__ = ("device",)

    def __init__(self, device: ComponentId):
        self._set(device)


FaultSpec = Union[LatencyOverride, StuckSensor, DropEvents]
