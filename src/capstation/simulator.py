"""Deterministic discrete-event simulator of the cap dispenser.

The machine is driven by actuator command scripts and produces a
time-ordered trace of state-change events.  One table, `_POSITION_SENSOR`,
names the sensor that reads Obstructed while an axis rests at each
position; both the sensor readings and motion completion read it.
Position sensors flip at motion completion: the moving ejector rod keeps
blocking its origin sensor until it arrives, so origin-clear and
destination-set events share the completion timestamp (the origin clears
before the destination sets).  Reversing an actuator mid-motion
returns it to its origin with a proportional latency and, because the
settled position never changed, without emitting sensor events.

No physics: gravity feed, suction thresholds and similar effects are the
discrete consequences described for the real machine, not forces.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core.bemap import ComponentId
from .core.timing import TimePoint
from .devices import DeviceKind, DeviceState, PhysicalEvent, Signal
from .errors import ModelError, TimeRegressionError, UnknownActuatorError, UnknownDeviceError
from .station import (
    EJECT_AIR_PULSE,
    LOADER_DROPOFF,
    LOADER_DROPPED_OFF,
    LOADER_PICKED_UP,
    LOADER_PICKUP,
    SIGNAL_MAPPINGS,
    STACK_EJECTOR_EXTEND,
    STACK_EJECTOR_EXTENDED,
    STACK_EJECTOR_RETRACTED,
    STACK_EMPTY,
    StationCatalog,
    VACUUM_GRIP,
    WORKPIECE_GRIPPED,
)


class EjectorPosition(enum.Enum):
    RETRACTED = "Retracted"
    EXTENDED = "Extended"


class ArmPosition(enum.Enum):
    AT_PICKUP = "AtPickup"
    AT_DROPOFF = "AtDropoff"


# The position sensor that reads Obstructed while its axis rests there.
_POSITION_SENSOR = {
    EjectorPosition.RETRACTED: STACK_EJECTOR_RETRACTED,
    EjectorPosition.EXTENDED: STACK_EJECTOR_EXTENDED,
    ArmPosition.AT_PICKUP: LOADER_PICKED_UP,
    ArmPosition.AT_DROPOFF: LOADER_DROPPED_OFF,
}


@dataclass
class _Motion:
    target: object
    start: int
    end: int

    def progress(self, now: int) -> float:
        span = self.end - self.start
        if span <= 0:
            return 1.0
        return min(1.0, max(0.0, (now - self.start) / span))


@dataclass
class _Axis:
    """One mechanical degree of freedom: a settled position plus an
    optional motion in flight.  Sensor values derive from the settled
    position only."""

    settled: object
    motion: Optional[_Motion] = None


# Transition identifiers for the latency table.
ACTIVATE = "activate"
DEACTIVATE = "deactivate"


@dataclass(frozen=True)
class LatencyTable:
    """Motion durations in ms, keyed by (actuator, transition)."""

    durations: Dict[Tuple[ComponentId, str], int]
    jitter_ms: int = 0

    def get(self, device: ComponentId, transition: str) -> int:
        try:
            return self.durations[(device, transition)]
        except KeyError:
            raise ValueError(f"no latency for {device} / {transition}") from None

    def with_override(
        self, device: ComponentId, latency_ms: int, transition: Optional[str] = None
    ) -> "LatencyTable":
        durations = dict(self.durations)
        matched = False
        for key in list(durations):
            if key[0] == device and (transition is None or key[1] == transition):
                durations[key] = latency_ms
                matched = True
        if not matched:
            raise ValueError(f"no motion latency for {device} / {transition}")
        return LatencyTable(durations, self.jitter_ms)


def default_latency_table(jitter_ms: int = 0) -> LatencyTable:
    # The ejector defaults sit at the midpoint of the documented
    # [200, 300] ms response window so nominal runs satisfy it.
    return LatencyTable(
        {
            (STACK_EJECTOR_EXTEND, ACTIVATE): 250,
            (STACK_EJECTOR_EXTEND, DEACTIVATE): 250,
            (LOADER_PICKUP, ACTIVATE): 800,
            (LOADER_DROPOFF, ACTIVATE): 800,
            (VACUUM_GRIP, ACTIVATE): 150,
            (EJECT_AIR_PULSE, ACTIVATE): 50,
        },
        jitter_ms=jitter_ms,
    )


class Command(NamedTuple):
    """One script line; a script is any time-ordered sequence of these."""

    time: int
    actuator: ComponentId
    signal: Signal


@dataclass(frozen=True)
class LatencyOverride:
    device: ComponentId
    latency_ms: int
    transition: Optional[str] = None


@dataclass(frozen=True)
class StuckSensor:
    device: ComponentId
    state: DeviceState


@dataclass(frozen=True)
class DropEvents:
    device: ComponentId


FaultSpec = Union[LatencyOverride, StuckSensor, DropEvents]


@dataclass
class StationState:
    """Mutable machine state owned by a single simulation run."""

    stack_count: int
    clock: int = 0
    ejector: _Axis = field(default_factory=lambda: _Axis(EjectorPosition.RETRACTED))
    arm: _Axis = field(default_factory=lambda: _Axis(ArmPosition.AT_PICKUP))
    vacuum_on: bool = False
    gripped: bool = False
    cap_at_pickup_spot: bool = False
    grip_eta: Optional[int] = None
    eject_eta: Optional[int] = None
    actuator_signals: Dict[ComponentId, Signal] = field(default_factory=dict)
    caps_pushed: int = 0
    caps_delivered: int = 0
    caps_lost: int = 0


class Simulation:
    """Event-driven engine; use `run_script` for the one-shot interface."""

    def __init__(
        self,
        catalog: StationCatalog,
        stack_count: int = 5,
        latencies: Optional[LatencyTable] = None,
        rng: Optional[random.Random] = None,
    ):
        if stack_count < 0:
            raise ValueError("stack count must be non-negative")
        self.latencies = latencies or default_latency_table()
        self.rng = rng or random.Random(0)
        # events emitted and not yet taken by `stream`
        self.events: List[PhysicalEvent] = []
        self.state = StationState(stack_count=stack_count)
        for actuator in catalog.actuators:
            self.state.actuator_signals[actuator] = Signal.LOW
        readings = self.readings()
        for sensor in catalog.sensors:
            self._emit(sensor, 0, readings[sensor].name)

    # -- sensor values -----------------------------------------------------

    def readings(self) -> Dict[ComponentId, DeviceState]:
        """Current concrete state of every sensor, derived from the machine."""
        s = self.state
        names = {
            STACK_EMPTY: "Obstructed" if s.stack_count > 0 else "Unobstructed",
            WORKPIECE_GRIPPED: "Gripped" if s.gripped else "Released",
        }
        for position, sensor in _POSITION_SENSOR.items():
            held = position is s.ejector.settled or position is s.arm.settled
            names[sensor] = "Obstructed" if held else "Unobstructed"
        return {device: SIGNAL_MAPPINGS[device].state_named(name) for device, name in names.items()}

    def _emit(self, sensor: ComponentId, t: int, state_name: str) -> None:
        state = SIGNAL_MAPPINGS[sensor].state_named(state_name)
        self.events.append(PhysicalEvent(sensor, DeviceKind.SENSOR, TimePoint(t), state))

    # -- timeline ----------------------------------------------------------

    def _latency(self, device: ComponentId, transition: str) -> int:
        base = self.latencies.get(device, transition)
        if self.latencies.jitter_ms > 0:
            base += self.rng.randint(-self.latencies.jitter_ms, self.latencies.jitter_ms)
        return max(base, 0)

    def _complete_next(self, t: Optional[int] = None) -> bool:
        """Run the earliest completion due at or before t (the earliest of
        all for None) and move the clock to it; ties go ejector, arm, grip,
        eject.  Returns whether one ran."""
        s = self.state
        ejector = None if s.ejector.motion is None else s.ejector.motion.end
        arm = None if s.arm.motion is None else s.arm.motion.end
        due = [when for when in (ejector, arm, s.grip_eta, s.eject_eta) if when is not None]
        when = min(due, default=None)
        if when is None or (t is not None and when > t):
            return False
        if when == ejector:
            self._complete_motion(s.ejector, when)
        elif when == arm:
            self._complete_motion(s.arm, when)
        elif when == s.grip_eta:
            self._complete_grip(when)
        else:
            self._complete_eject(when)
        s.clock = when
        return True

    def advance(self, t: int) -> None:
        """Process all completions due at or before t, then set the clock."""
        while self._complete_next(t):
            pass
        self.state.clock = max(self.state.clock, t)

    def settle(self) -> None:
        """Drain every pending motion and scheduled effect."""
        while self._complete_next():
            pass

    # -- completions ---------------------------------------------------------

    def _complete_motion(self, axis: _Axis, t: int) -> None:
        """Settle the axis at its target: the origin sensor clears, then the
        destination sensor sets.  An extension pushes the bottom cap out; on
        retraction the remaining caps drop one cap height by gravity."""
        s = self.state
        origin, target = axis.settled, axis.motion.target
        axis.motion = None
        if target is origin:
            return  # interrupted motion returned home; nothing changed
        axis.settled = target
        self._emit(_POSITION_SENSOR[origin], t, "Unobstructed")
        self._emit(_POSITION_SENSOR[target], t, "Obstructed")
        if target is EjectorPosition.EXTENDED and s.stack_count > 0:
            s.stack_count -= 1
            s.caps_pushed += 1
            self._land_on_pickup_spot()
            if s.stack_count == 0:
                self._emit(STACK_EMPTY, t, "Unobstructed")
            self._maybe_start_grip(t)
        elif target is ArmPosition.AT_PICKUP:
            self._maybe_start_grip(t)

    def _can_grip(self) -> bool:
        s = self.state
        return (
            s.vacuum_on
            and not s.gripped
            and s.cap_at_pickup_spot
            and s.arm.settled is ArmPosition.AT_PICKUP
            and s.arm.motion is None
        )

    def _maybe_start_grip(self, t: int) -> None:
        if self.state.grip_eta is None and self._can_grip():
            self.state.grip_eta = t + self._latency(VACUUM_GRIP, ACTIVATE)

    def _complete_grip(self, t: int) -> None:
        s = self.state
        s.grip_eta = None
        if self._can_grip():
            s.gripped = True
            s.cap_at_pickup_spot = False
            self._emit(WORKPIECE_GRIPPED, t, "Gripped")

    def _land_on_pickup_spot(self) -> None:
        """A cap arrives at the pickup spot; if one already lies there the
        spot jams and the arriving cap is lost."""
        s = self.state
        if s.cap_at_pickup_spot:
            s.caps_lost += 1
        else:
            s.cap_at_pickup_spot = True

    def _release_cap(self, t: int) -> None:
        s = self.state
        s.gripped = False
        self._emit(WORKPIECE_GRIPPED, t, "Released")
        if s.arm.motion is None and s.arm.settled is ArmPosition.AT_PICKUP:
            self._land_on_pickup_spot()
        elif s.arm.motion is None and s.arm.settled is ArmPosition.AT_DROPOFF:
            s.caps_delivered += 1
        else:
            s.caps_lost += 1

    def _complete_eject(self, t: int) -> None:
        s = self.state
        s.eject_eta = None
        if s.gripped:
            self._release_cap(t)

    # -- commands ------------------------------------------------------------

    def _move(self, axis: _Axis, desired, latency: int, t: int) -> None:
        if axis.motion is None:
            if axis.settled is not desired:
                axis.motion = _Motion(desired, t, t + latency)
            return
        if axis.motion.target is desired:
            return
        # reversal mid-motion: symmetric partial return with proportional latency
        p = axis.motion.progress(t)
        axis.motion = _Motion(desired, t, t + round(p * latency))

    def command(self, actuator: ComponentId, signal: Signal, t: int) -> List[PhysicalEvent]:
        """Apply one actuator command; returns the events this call emitted,
        including completions that fell due at or before t."""
        if actuator not in self.state.actuator_signals:
            raise UnknownActuatorError(actuator)
        if signal is Signal.DONT_CARE:
            raise ValueError("commands must carry a concrete signal")
        if t < self.state.clock:
            raise TimeRegressionError(f"command at {t} before clock {self.state.clock}")
        before = len(self.events)
        self.advance(t)
        s = self.state
        if s.actuator_signals[actuator] is signal:
            return self.events[before:]  # the signal level did not change
        s.actuator_signals[actuator] = signal
        meaning = SIGNAL_MAPPINGS[actuator](signal)
        self.events.append(PhysicalEvent(actuator, DeviceKind.ACTUATOR, TimePoint(t), meaning))
        active = meaning.name == "Active"

        match actuator.id:  # string compares, not dataclass ones
            case STACK_EJECTOR_EXTEND.id:
                transition = ACTIVATE if active else DEACTIVATE
                to = EjectorPosition.EXTENDED if active else EjectorPosition.RETRACTED
                self._move(s.ejector, to, self._latency(actuator, transition), t)
            case LOADER_PICKUP.id if active:
                self._move(s.arm, ArmPosition.AT_PICKUP, self._latency(actuator, ACTIVATE), t)
            case LOADER_DROPOFF.id if active:
                self._move(s.arm, ArmPosition.AT_DROPOFF, self._latency(actuator, ACTIVATE), t)
            case VACUUM_GRIP.id:
                if active:
                    s.vacuum_on = True
                    self._maybe_start_grip(t)
                else:
                    s.vacuum_on = False
                    s.grip_eta = None
                    if s.gripped:
                        self._release_cap(t)  # suction collapses immediately
            case EJECT_AIR_PULSE.id:
                if active and s.gripped and s.eject_eta is None:
                    s.eject_eta = t + self._latency(actuator, ACTIVATE)

        return self.events[before:]

    def _taken(self) -> List[PhysicalEvent]:
        taken, self.events = self.events, []
        return taken

    def stream(self, script: Sequence[Command]) -> Iterator[PhysicalEvent]:
        """Run the script lazily: yield the events emitted so far (the
        initial readings), then each command's, then those of the final
        settle.  Yielded events leave `events`, so a run holds only the
        events of the current command."""
        yield from self._taken()
        for index, (time, actuator, signal) in enumerate(script):
            try:
                self.command(actuator, signal, time)
            except ModelError as exc:
                if hasattr(exc, "add_note"):  # 3.11+
                    exc.add_note(f"script command {index}: {actuator} {signal.value} @ {time}")
                raise
            yield from self._taken()
        self.settle()
        yield from self._taken()

    def run(self, script: Sequence[Command]) -> List[PhysicalEvent]:
        return list(self.stream(script))


def run_script(
    catalog: StationCatalog,
    script: Sequence[Command],
    faults: Sequence[FaultSpec] = (),
    seed: int = 0,
    stack_count: int = 5,
    latencies: Optional[LatencyTable] = None,
) -> List[PhysicalEvent]:
    """Run a command script and return the full, time-ordered event trace."""
    return list(stream_script(catalog, script, faults, seed, stack_count, latencies))


def stream_script(
    catalog: StationCatalog,
    script: Sequence[Command],
    faults: Sequence[FaultSpec] = (),
    seed: int = 0,
    stack_count: int = 5,
    latencies: Optional[LatencyTable] = None,
) -> Iterator[PhysicalEvent]:
    """Run a command script lazily, yielding its time-ordered event trace
    as it is simulated.  The faults (errors name them `faults[i]`) and the
    stack count are checked when this is called, before the first event.

    Deterministic for a fixed (script, faults, seed).  Latency overrides
    shift completion events; stuck sensors pin their reported state from
    the start and suppress changes; dropped events are removed from the
    output but still happen internally.
    """
    table = latencies or default_latency_table()
    stuck: Dict[ComponentId, DeviceState] = {}
    dropped = set()
    for i, fault in enumerate(faults):
        where = f"faults[{i}]"
        if fault.device not in catalog.devices:
            raise UnknownDeviceError(fault.device, f"{where}.device")
        try:
            if isinstance(fault, LatencyOverride):
                table = table.with_override(fault.device, fault.latency_ms, fault.transition)
            elif isinstance(fault, StuckSensor):
                where += f": stuck-sensor fault on {fault.device}"
                kind = catalog.kind(fault.device)
                if kind is not DeviceKind.SENSOR:
                    raise ValueError(f"the device is not a sensor ({kind.value})")
                stuck[fault.device] = SIGNAL_MAPPINGS[fault.device].state_named(fault.state.name)
            elif isinstance(fault, DropEvents):
                dropped.add(fault.device)
            else:
                raise TypeError(f"unknown fault: {fault!r}")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    events = Simulation(catalog, stack_count, table, random.Random(seed)).stream(script)
    if not stuck and not dropped:
        return events
    return _faulted(events, stuck, dropped)


def _faulted(
    events: Iterator[PhysicalEvent], stuck: Dict[ComponentId, DeviceState], dropped: set
) -> Iterator[PhysicalEvent]:
    pinned = set()
    for event in events:
        if event.device in dropped:
            continue
        if event.device in stuck:
            if event.device in pinned:
                continue
            pinned.add(event.device)
            yield PhysicalEvent(event.device, event.kind, event.timepoint, stuck[event.device])
        else:
            yield event
