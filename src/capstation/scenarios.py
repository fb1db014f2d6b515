"""Built-in command scripts and fault sets for demos and tests.

The nominal dispense cycle drives every rule in the three topologies to a
satisfied verdict under the default latencies.  Its shape is constrained
by two exact requirements: the drop-off swing must complete exactly the
sequence delay (3 s) after each pickup-contact event, and every ejector
extension must sit within [-500, +1000] ms of a Loader Pickup release
event, which is why the arm performs a swing-out/swing-back before the
first ejection.
"""

from __future__ import annotations

from typing import List, Tuple

from .devices import ACTIVATE, Command, FaultSpec, LatencyOverride, Signal
from .station import (
    EJECT_AIR_PULSE,
    LOADER_DROPOFF,
    LOADER_PICKUP,
    STACK_EJECTOR_EXTEND,
    VACUUM_GRIP,
)

HIGH = Signal.HIGH
LOW = Signal.LOW


def nominal_script() -> Tuple[Command, ...]:
    """One full cap-dispense cycle: swing out/back, eject, grip, deliver."""
    return (
        # Arm to drop-off: completes at 3000, matching the 3 s sequence
        # correlation fired by the initial pickup-contact event at t=0.
        Command(2200, LOADER_DROPOFF, HIGH),
        Command(3200, LOADER_DROPOFF, LOW),
        # Arm back to pickup; releasing the solenoid afterwards provides
        # the Passive event the avoidance window looks back for.
        Command(3400, LOADER_PICKUP, HIGH),
        Command(4400, LOADER_PICKUP, LOW),
        # Push a cap out (extension completes at 4750) and grip it.
        Command(4500, STACK_EJECTOR_EXTEND, HIGH),
        Command(5000, VACUUM_GRIP, HIGH),
        # Retract while holding the cap, then carry it to drop-off;
        # the swing completes at 7200 = pickup contact (4200) + 3 s.
        Command(5400, STACK_EJECTOR_EXTEND, LOW),
        Command(6400, LOADER_DROPOFF, HIGH),
        # Blow the cap off and shut the air handling down.
        Command(7400, EJECT_AIR_PULSE, HIGH),
        Command(7600, EJECT_AIR_PULSE, LOW),
        Command(7700, VACUUM_GRIP, LOW),
    )


def two_cycles_script() -> Tuple[Command, ...]:
    """Two consecutive dispense cycles.

    Cycle two is cycle one shifted by 4.8 s, less its first command: cycle
    one ends with the arm at drop-off, so cycle two starts by releasing
    the drop-off solenoid (it must go Passive before it can pull the arm
    again), and its drop-off swing lands the 3 s sequence delay after the
    second pickup contact.
    """
    first = nominal_script()
    return first + tuple(Command(c.time + 4800, c.actuator, c.signal) for c in first[1:])


def late_extension_fault(latency_ms: int = 350) -> List[FaultSpec]:
    """Slow the ejector extension past the documented 300 ms maximum."""
    return [LatencyOverride(STACK_EJECTOR_EXTEND, latency_ms, transition=ACTIVATE)]
