"""The Cap Dispenser station: device inventory, descriptions and topologies.

The station has two subsystems: a cap stack tube with an ejector that
pushes the bottom cap out, and a swing arm with a vacuum gripper that
carries caps from the pickup spot to the drop-off area.

Each device is stated once, as one row of `_DEVICE_TABLE`: its kind, type,
pin, signal mapping, part, spatial variations, box and placeholder keys;
`PARTS`, `ACTUATORS` and `SENSORS` are read off it.  Each topology edge is
stated once, as one row of `_EDGE_TABLE`.  `build_catalog` turns every
device row into a description with one fixed key order, and every edge row
into an annotated edge whose two states its devices' signal mappings must
give.

Geometry constants are layered: station edges anchor part edges, part
edges anchor sensor edges, and sizes are shared between the two ejector
position sensors.  Constants not stated by the source measurements are
placeholders and are flagged, along with synthesized topology edges and
pin assignments, in the catalog's `synthetic_*` sets so tests and tools
can separate documented fixtures from glue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from .core.bemap import BeMapKV, ComponentId, ComponentValue
from .core.geometry import Box3D
from .core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .core.timing import TimeDurationRange, relative_duration
from .devices import (
    ACTIVE,
    DeviceKind,
    GRIP_SENSOR_MAPPING,
    GRIPPED,
    HIGH_SOLENOID_MAPPING,
    OBSTRUCTED,
    OBSTRUCTED_ON_HIGH,
    OBSTRUCTED_ON_LOW,
    PASSIVE,
    RELEASED,
    SignalMapping,
    SpatialVariationSet,
    UNOBSTRUCTED,
)
from .errors import UnknownDeviceError

# ---------------------------------------------------------------------------
# Device identities
# ---------------------------------------------------------------------------

STACK_EJECTOR = ComponentId("Stack Ejector")
CAP_STACK_TUBE = ComponentId("Cap Stack Tube")
LOADER = ComponentId("Loader")
VACUUM_GRIPPER = ComponentId("Vacuum Gripper")

STACK_EJECTOR_EXTEND = ComponentId("Stack Ejector Extend")
LOADER_PICKUP = ComponentId("Loader Pickup")
LOADER_DROPOFF = ComponentId("Loader Dropoff")
VACUUM_GRIP = ComponentId("Vacuum Grip")
EJECT_AIR_PULSE = ComponentId("Eject Air Pulse")

STACK_EMPTY = ComponentId("Stack Empty")
STACK_EJECTOR_EXTENDED = ComponentId("Stack Ejector Extended")
STACK_EJECTOR_RETRACTED = ComponentId("Stack Ejector Retracted")
LOADER_PICKED_UP = ComponentId("Loader Picked Up")
LOADER_DROPPED_OFF = ComponentId("Loader Dropped Off")
WORKPIECE_GRIPPED = ComponentId("Workpiece Gripped")

# Description keys
KEY_DEVICE_CATEGORY = ComponentId("Device Category")
KEY_DEVICE_TYPE = ComponentId("Device Type")
KEY_GPIO = ComponentId("GPIO")
KEY_PART_ASSOCIATION = ComponentId("Part Association")
KEY_SIGNAL_MAPPING = ComponentId("Signal Mapping")
KEY_SPATIAL_LOCATION = ComponentId("Spatial Location")
KEY_SPATIAL_VARIATIONS = ComponentId("Spatial Variations")


class TopologyName(enum.Enum):
    PROCESS_SEQUENCE = "ProcessSequence"
    CAUSALITY = "Causality"
    AVOIDANCE = "Avoidance"


# ---------------------------------------------------------------------------
# Measurement table (integer millimetres, layered symbolic referencing)
# ---------------------------------------------------------------------------


class Width:
    EXTEND_RETRACT_SENSOR = 32
    STACK_EJECTOR = 85          # synthetic placeholder
    CAP_STACK_TUBE = 45         # synthetic
    STACK_EMPTY_SENSOR = 32     # synthetic
    CONTACT_SENSOR = 20         # synthetic


class Depth:
    EXTEND_RETRACT_SENSOR = 10
    STACK_EJECTOR = 250         # synthetic placeholder
    CAP_STACK_TUBE = 45         # synthetic
    STACK_EMPTY_SENSOR = 10     # synthetic
    CONTACT_SENSOR = 20         # synthetic


class Z:
    BASE = 0
    STACK_EJECTOR_BOTTOM = BASE
    EXTEND_RETRACT_SENSOR_BOTTOM = BASE + 4
    EXTEND_RETRACT_SENSOR_TOP = BASE + 20
    CAP_STACK_TUBE_BOTTOM = BASE + 30                       # synthetic
    STACK_EMPTY_SENSOR_BOTTOM = EXTEND_RETRACT_SENSOR_TOP   # synthetic
    CONTACT_SENSOR_BOTTOM = BASE + 40                       # synthetic


class Height:
    EXTEND_RETRACT_SENSOR = Z.EXTEND_RETRACT_SENSOR_TOP - Z.EXTEND_RETRACT_SENSOR_BOTTOM
    STACK_EJECTOR = Z.CAP_STACK_TUBE_BOTTOM - Z.STACK_EJECTOR_BOTTOM  # synthetic
    CAP_STACK_TUBE = 150        # synthetic
    STACK_EMPTY_SENSOR = 10     # synthetic
    CONTACT_SENSOR = 10         # synthetic


class X:
    STATION1_EDGE_LEFT = 0
    STACK_EJECTOR_RIGHT = STATION1_EDGE_LEFT + 85
    STACK_EJECTOR_LEFT = STACK_EJECTOR_RIGHT - Width.STACK_EJECTOR
    EXTEND_RETRACT_SENSOR_RIGHT = STACK_EJECTOR_RIGHT
    EXTEND_RETRACT_SENSOR_LEFT = EXTEND_RETRACT_SENSOR_RIGHT - Width.EXTEND_RETRACT_SENSOR
    CAP_STACK_TUBE_LEFT = STATION1_EDGE_LEFT + 20           # synthetic
    STACK_EMPTY_SENSOR_LEFT = CAP_STACK_TUBE_LEFT           # synthetic
    LOADER_PICKED_UP_LEFT = STATION1_EDGE_LEFT + 100        # synthetic
    LOADER_DROPPED_OFF_LEFT = STATION1_EDGE_LEFT + 300      # synthetic


class Y:
    STATION1_EDGE_FRONT = 0
    STACK_EJECTOR_FRONT = STATION1_EDGE_FRONT + 76
    EXTEND_SENSOR_FRONT = STACK_EJECTOR_FRONT + 122
    EXTEND_SENSOR_BACK = EXTEND_SENSOR_FRONT + Depth.EXTEND_RETRACT_SENSOR
    RETRACT_SENSOR_FRONT = STACK_EJECTOR_FRONT + 236
    RETRACT_SENSOR_BACK = RETRACT_SENSOR_FRONT + Depth.EXTEND_RETRACT_SENSOR
    CAP_STACK_TUBE_FRONT = STATION1_EDGE_FRONT + 250        # synthetic
    STACK_EMPTY_SENSOR_FRONT = CAP_STACK_TUBE_FRONT + 5     # synthetic
    LOADER_PICKED_UP_FRONT = STACK_EJECTOR_FRONT            # synthetic
    LOADER_DROPPED_OFF_FRONT = STACK_EJECTOR_FRONT          # synthetic


# Spatial variation positions
STACK_EJECTOR_RETRACTED_POSITION = "Stack Ejector Retracted Position"
STACK_EJECTOR_EXTENDED_POSITION = "Stack Ejector Extended Position"
LOADER_PICKUP_POSITION = "Loader Pickup Position"
LOADER_DROPOFF_POSITION = "Loader Dropoff Position"
GRIPPER_PICKUP_POSITION = "Gripper Pickup Position"
GRIPPER_DROPOFF_POSITION = "Gripper Dropoff Position"

STACK_EJECTOR_POSITIONS = SpatialVariationSet(
    "Stack Ejector Positions",
    (STACK_EJECTOR_RETRACTED_POSITION, STACK_EJECTOR_EXTENDED_POSITION),
)
LOADER_POSITIONS = SpatialVariationSet(
    "Loader Positions", (LOADER_PICKUP_POSITION, LOADER_DROPOFF_POSITION)
)
GRIPPER_POSITIONS = SpatialVariationSet(
    "Gripper Positions", (GRIPPER_PICKUP_POSITION, GRIPPER_DROPOFF_POSITION)
)


# ---------------------------------------------------------------------------
# Device table
# ---------------------------------------------------------------------------

_WIRING = (KEY_GPIO, KEY_SIGNAL_MAPPING)

# One row per device: id, kind, device type, GPIO pin, signal mapping, part
# association, spatial variations, box anchor (x, y, z, w, d, h), and the
# description keys whose values are placeholders.  None leaves a key out.
_DEVICE_TABLE = (
    (STACK_EJECTOR, DeviceKind.PART, "Horizontal Pusher", None, None, None,
     STACK_EJECTOR_POSITIONS,
     (X.STACK_EJECTOR_LEFT, Y.STACK_EJECTOR_FRONT, Z.STACK_EJECTOR_BOTTOM,
      Width.STACK_EJECTOR, Depth.STACK_EJECTOR, Height.STACK_EJECTOR),
     (KEY_SPATIAL_LOCATION,)),
    (CAP_STACK_TUBE, DeviceKind.PART, "Tube", None, None, None, None,
     (X.CAP_STACK_TUBE_LEFT, Y.CAP_STACK_TUBE_FRONT, Z.CAP_STACK_TUBE_BOTTOM,
      Width.CAP_STACK_TUBE, Depth.CAP_STACK_TUBE, Height.CAP_STACK_TUBE),
     (KEY_SPATIAL_LOCATION,)),
    (LOADER, DeviceKind.PART, "Swing Arm", None, None, None, LOADER_POSITIONS, None,
     (KEY_SPATIAL_VARIATIONS,)),
    (VACUUM_GRIPPER, DeviceKind.PART, "Suction Cup", None, None, None, GRIPPER_POSITIONS, None,
     (KEY_SPATIAL_VARIATIONS,)),
    (STACK_EJECTOR_EXTEND, DeviceKind.ACTUATOR, "Solenoid", 1, HIGH_SOLENOID_MAPPING,
     STACK_EJECTOR, None, None, _WIRING),
    (LOADER_PICKUP, DeviceKind.ACTUATOR, "Solenoid", 26, HIGH_SOLENOID_MAPPING,
     LOADER, None, None, _WIRING),
    (LOADER_DROPOFF, DeviceKind.ACTUATOR, "Solenoid", 13, HIGH_SOLENOID_MAPPING,
     LOADER, None, None, _WIRING),
    (VACUUM_GRIP, DeviceKind.ACTUATOR, "Solenoid", 5, HIGH_SOLENOID_MAPPING,
     LOADER, None, None, ()),
    (EJECT_AIR_PULSE, DeviceKind.ACTUATOR, "Solenoid", 19, HIGH_SOLENOID_MAPPING,
     VACUUM_GRIPPER, None, None, _WIRING),
    (STACK_EMPTY, DeviceKind.SENSOR, "Light Sensor", 7, OBSTRUCTED_ON_LOW, CAP_STACK_TUBE, None,
     (X.STACK_EMPTY_SENSOR_LEFT, Y.STACK_EMPTY_SENSOR_FRONT, Z.STACK_EMPTY_SENSOR_BOTTOM,
      Width.STACK_EMPTY_SENSOR, Depth.STACK_EMPTY_SENSOR, Height.STACK_EMPTY_SENSOR),
     _WIRING + (KEY_SPATIAL_LOCATION,)),
    (STACK_EJECTOR_EXTENDED, DeviceKind.SENSOR, "Light Sensor", 0, OBSTRUCTED_ON_HIGH,
     STACK_EJECTOR, None,
     (X.EXTEND_RETRACT_SENSOR_LEFT, Y.EXTEND_SENSOR_FRONT, Z.EXTEND_RETRACT_SENSOR_BOTTOM,
      Width.EXTEND_RETRACT_SENSOR, Depth.EXTEND_RETRACT_SENSOR, Height.EXTEND_RETRACT_SENSOR),
     ()),
    (STACK_EJECTOR_RETRACTED, DeviceKind.SENSOR, "Light Sensor", 3, OBSTRUCTED_ON_HIGH,
     STACK_EJECTOR, None,
     (X.EXTEND_RETRACT_SENSOR_LEFT, Y.RETRACT_SENSOR_FRONT, Z.EXTEND_RETRACT_SENSOR_BOTTOM,
      Width.EXTEND_RETRACT_SENSOR, Depth.EXTEND_RETRACT_SENSOR, Height.EXTEND_RETRACT_SENSOR),
     ()),
    (LOADER_PICKED_UP, DeviceKind.SENSOR, "Contact Sensor", 25, OBSTRUCTED_ON_HIGH, LOADER, None,
     (X.LOADER_PICKED_UP_LEFT, Y.LOADER_PICKED_UP_FRONT, Z.CONTACT_SENSOR_BOTTOM,
      Width.CONTACT_SENSOR, Depth.CONTACT_SENSOR, Height.CONTACT_SENSOR),
     _WIRING + (KEY_SPATIAL_LOCATION,)),
    (LOADER_DROPPED_OFF, DeviceKind.SENSOR, "Contact Sensor", 8, OBSTRUCTED_ON_HIGH, LOADER, None,
     (X.LOADER_DROPPED_OFF_LEFT, Y.LOADER_DROPPED_OFF_FRONT, Z.CONTACT_SENSOR_BOTTOM,
      Width.CONTACT_SENSOR, Depth.CONTACT_SENSOR, Height.CONTACT_SENSOR),
     _WIRING + (KEY_SPATIAL_LOCATION,)),
    (WORKPIECE_GRIPPED, DeviceKind.SENSOR, "Vacuum Sensor", 11, GRIP_SENSOR_MAPPING,
     VACUUM_GRIPPER, None, None, _WIRING),
)


def _of_kind(kind: DeviceKind) -> Tuple[ComponentId, ...]:
    return tuple(row[0] for row in _DEVICE_TABLE if row[1] is kind)


PARTS = _of_kind(DeviceKind.PART)
ACTUATORS = _of_kind(DeviceKind.ACTUATOR)
SENSORS = _of_kind(DeviceKind.SENSOR)
# each wired device's signal mapping, the same object its description holds;
# parts have none
SIGNAL_MAPPINGS: Mapping[ComponentId, SignalMapping] = {
    row[0]: row[4] for row in _DEVICE_TABLE if row[4] is not None
}


# ---------------------------------------------------------------------------
# Edge table
# ---------------------------------------------------------------------------

# The documented process-sequence delay constant is stored raw; its unit
# defaults to seconds and is decided by the monitor configuration.
PROCESS_SEQUENCE_DELTA = 3

# Windows (milliseconds) of the documented actuator-to-sensor rule and of
# the documented actuator-to-actuator safety rule.
EJECTOR_WINDOW = (200, 300)
AVOIDANCE_WINDOW = (-500, 1000)

# Synthetic windows sized around the simulator's default latencies.
_SWING_WINDOW = (700, 900)
_GRIP_WINDOW = (100, 200)
_EJECT_WINDOW = (0, 100)

# One row per topology edge, in rule (and report) order: topology, source,
# cause state, target, effect state, timing and whether a documented fixture
# backs the edge.  An int timing is an exact-delay correlation, a (min, max)
# pair a constraint window.
_EDGE_TABLE = (
    # ProcessSequence: expected order of sensor state changes during normal processing.
    (TopologyName.PROCESS_SEQUENCE, LOADER_PICKED_UP, OBSTRUCTED,
     LOADER_DROPPED_OFF, OBSTRUCTED, PROCESS_SEQUENCE_DELTA, True),
    # Causality: actuator state changes that must lead to sensor state changes.
    (TopologyName.CAUSALITY, STACK_EJECTOR_EXTEND, ACTIVE,
     STACK_EJECTOR_RETRACTED, UNOBSTRUCTED, EJECTOR_WINDOW, True),
    (TopologyName.CAUSALITY, STACK_EJECTOR_EXTEND, PASSIVE,
     STACK_EJECTOR_EXTENDED, UNOBSTRUCTED, EJECTOR_WINDOW, False),
    (TopologyName.CAUSALITY, STACK_EJECTOR_EXTEND, ACTIVE,
     STACK_EJECTOR_EXTENDED, OBSTRUCTED, EJECTOR_WINDOW, False),
    (TopologyName.CAUSALITY, STACK_EJECTOR_EXTEND, PASSIVE,
     STACK_EJECTOR_RETRACTED, OBSTRUCTED, EJECTOR_WINDOW, False),
    (TopologyName.CAUSALITY, LOADER_PICKUP, ACTIVE,
     LOADER_PICKED_UP, OBSTRUCTED, _SWING_WINDOW, False),
    (TopologyName.CAUSALITY, LOADER_DROPOFF, ACTIVE,
     LOADER_DROPPED_OFF, OBSTRUCTED, _SWING_WINDOW, False),
    (TopologyName.CAUSALITY, VACUUM_GRIP, ACTIVE,
     WORKPIECE_GRIPPED, GRIPPED, _GRIP_WINDOW, False),
    (TopologyName.CAUSALITY, EJECT_AIR_PULSE, ACTIVE,
     WORKPIECE_GRIPPED, RELEASED, _EJECT_WINDOW, False),
    # Avoidance: temporal safety margin between the ejector and the pickup swing.
    (TopologyName.AVOIDANCE, STACK_EJECTOR_EXTEND, ACTIVE,
     LOADER_PICKUP, PASSIVE, AVOIDANCE_WINDOW, True),
)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationCatalog:
    """Immutable station model: device kinds, descriptions, topologies.

    `synthetic_edges` holds (topology, source, target) triples of edges not
    backed by the documented fixtures; `synthetic_entries` holds
    (device, description key) pairs whose values are placeholders.
    """

    devices: Mapping[ComponentId, DeviceKind]
    descriptions: Mapping[ComponentId, BeMapKV]
    topologies: Mapping[TopologyName, AnnotatedGraph]
    synthetic_edges: frozenset
    synthetic_entries: frozenset

    def kind(self, device: ComponentId) -> DeviceKind:
        try:
            return self.devices[device]
        except KeyError:
            raise UnknownDeviceError(device) from None

    def description(self, device: ComponentId) -> BeMapKV:
        try:
            return self.descriptions[device]
        except KeyError:
            raise UnknownDeviceError(device) from None

    def of_kind(self, kind: DeviceKind) -> Tuple[ComponentId, ...]:
        return tuple(d for d, k in self.devices.items() if k is kind)

    @property
    def actuators(self) -> Tuple[ComponentId, ...]:
        return self.of_kind(DeviceKind.ACTUATOR)

    @property
    def sensors(self) -> Tuple[ComponentId, ...]:
        return self.of_kind(DeviceKind.SENSOR)

    def boxes(self, devices: Iterable[ComponentId]) -> Dict[ComponentId, Box3D]:
        """The box of each of `devices` that declares a location, in their order."""
        out: Dict[ComponentId, Box3D] = {}
        for device in devices:
            value = self.description(device).get(KEY_SPATIAL_LOCATION)
            if value is not None:
                out[device] = value.value
        return out

    def is_synthetic_edge(self, topology: TopologyName, edge: EdgeAnn) -> bool:
        return _edge_key(topology, edge) in self.synthetic_edges


def _edge_key(topology: TopologyName, edge: EdgeAnn) -> tuple:
    # endpoints alone do not identify an edge: the ejector edges share them
    ann = edge.annotation
    cause = ann.cause.name if ann is not None else None
    effect = ann.effect.name if ann is not None else None
    return (topology, edge.source, edge.target, cause, effect)


def documented_edge(catalog: "StationCatalog", topology: TopologyName) -> EdgeAnn:
    """The single documented fixture edge of a topology."""
    for edge in catalog.topologies[topology].edges:
        if not catalog.is_synthetic_edge(topology, edge):
            return edge
    raise ValueError(f"no documented edge in {topology}")


def build_catalog() -> StationCatalog:
    """Construct the full station catalog from the device and edge tables."""
    devices: Dict[ComponentId, DeviceKind] = {}
    descriptions: Dict[ComponentId, BeMapKV] = {}
    synthetic_entries = set()
    for device, kind, type_name, pin, mapping, part, variations, anchor, placeholders in _DEVICE_TABLE:
        devices[device] = kind
        entries = (
            (KEY_DEVICE_CATEGORY, kind.value),
            (KEY_DEVICE_TYPE, type_name),
            (KEY_GPIO, pin),
            (KEY_SIGNAL_MAPPING, mapping),
            (KEY_PART_ASSOCIATION, None if part is None else part.id),
            (KEY_SPATIAL_VARIATIONS, variations),
            (KEY_SPATIAL_LOCATION, None if anchor is None else Box3D.from_anchor(*anchor)),
        )
        descriptions[device] = BeMapKV(
            tuple((key, ComponentValue(value)) for key, value in entries if value is not None)
        )
        synthetic_entries.update((device, key) for key in placeholders)

    edges: Dict[TopologyName, list] = {name: [] for name in TopologyName}
    synthetic_edges = set()
    for topology, source, cause, target, effect, timing, documented in _EDGE_TABLE:
        for device, state in ((source, cause), (target, effect)):
            mapping = SIGNAL_MAPPINGS.get(device)
            if mapping is None or state.name not in (mapping.high.name, mapping.low.name):
                raise ValueError(
                    f"edge table row {topology.value}: {source} {cause.name} -> "
                    f"{target} {effect.name}: {device} has no state {state.name!r}"
                )
        if isinstance(timing, int):
            annotation = TemporalCorrelation(cause, relative_duration(cause, timing), effect)
        else:
            lo, hi = timing
            window = TimeDurationRange(relative_duration(cause, lo), relative_duration(cause, hi))
            annotation = TemporalConstraint(cause, window, effect)
        edge = EdgeAnn(source, target, annotation)
        edges[topology].append(edge)
        if not documented:
            synthetic_edges.add(_edge_key(topology, edge))

    return StationCatalog(
        devices=devices,
        descriptions=descriptions,
        topologies={name: AnnotatedGraph(graph) for name, graph in edges.items()},
        synthetic_edges=frozenset(synthetic_edges),
        synthetic_entries=frozenset(synthetic_entries),
    )


def sensor_boxes(catalog: StationCatalog) -> Dict[ComponentId, Box3D]:
    """Occupancy box of every sensor that declares a fixed location.

    Restricted to sensors: part envelopes legitimately sweep through the
    sensing windows mounted on them, so they are excluded here and handled
    by the full spatial report instead.
    """
    return catalog.boxes(catalog.sensors)
