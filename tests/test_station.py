from __future__ import annotations

import itertools

import pytest

from capstation.core.bemap import ComponentId
from capstation.core.geometry import Box3D
from capstation.core.graph import TemporalConstraint, TemporalCorrelation
from capstation.core.terms import Atom, Xor
from capstation.devices import DeviceKind, HIGH_SOLENOID_MAPPING, Signal
from capstation.station import (
    ACTUATORS,
    CAP_STACK_TUBE,
    EJECT_AIR_PULSE,
    Height,
    KEY_DEVICE_CATEGORY,
    KEY_DEVICE_TYPE,
    KEY_GPIO,
    KEY_PART_ASSOCIATION,
    KEY_SIGNAL_MAPPING,
    KEY_SPATIAL_LOCATION,
    KEY_SPATIAL_VARIATIONS,
    LOADER,
    LOADER_DROPOFF,
    LOADER_DROPPED_OFF,
    LOADER_PICKED_UP,
    LOADER_PICKUP,
    PARTS,
    SENSORS,
    STACK_EJECTOR,
    STACK_EJECTOR_EXTEND,
    STACK_EJECTOR_EXTENDED,
    STACK_EJECTOR_RETRACTED,
    STACK_EMPTY,
    TopologyName,
    VACUUM_GRIP,
    VACUUM_GRIPPER,
    WORKPIECE_GRIPPED,
    X,
    Y,
    Z,
    build_avoidance,
    build_causality,
    build_process_sequence,
    documented_edge,
    sensor_boxes,
)

EXPECTED_ACTUATORS = {
    STACK_EJECTOR_EXTEND, LOADER_PICKUP, LOADER_DROPOFF, VACUUM_GRIP, EJECT_AIR_PULSE,
}
EXPECTED_SENSORS = {
    STACK_EMPTY, STACK_EJECTOR_EXTENDED, STACK_EJECTOR_RETRACTED,
    LOADER_PICKED_UP, LOADER_DROPPED_OFF, WORKPIECE_GRIPPED,
}
EXPECTED_PARTS = {STACK_EJECTOR, CAP_STACK_TUBE, LOADER, VACUUM_GRIPPER}


def test_device_inventory(catalog):
    assert set(catalog.actuators) == EXPECTED_ACTUATORS
    assert set(catalog.sensors) == EXPECTED_SENSORS
    assert set(catalog.parts) == EXPECTED_PARTS
    assert set(catalog.devices) == EXPECTED_ACTUATORS | EXPECTED_SENSORS | EXPECTED_PARTS


def test_every_description_names_category_and_type(catalog):
    for device in catalog.devices:
        desc = catalog.description(device)
        assert desc.get(KEY_DEVICE_CATEGORY).value == catalog.kind(device).value
        assert desc.get(KEY_DEVICE_TYPE) is not None


def test_actuators_and_sensors_carry_wiring_metadata(catalog):
    for device in itertools.chain(catalog.actuators, catalog.sensors):
        desc = catalog.description(device)
        assert desc.get(KEY_GPIO) is not None
        assert desc.get(KEY_SIGNAL_MAPPING) is not None
        assert desc.get(KEY_PART_ASSOCIATION) is not None


def test_movable_parts_declare_variations(catalog):
    for part in (STACK_EJECTOR, LOADER, VACUUM_GRIPPER):
        variations = catalog.description(part).get(KEY_SPATIAL_VARIATIONS)
        assert isinstance(variations.value, Xor)
    # the tube is fixed: located, not movable
    tube = catalog.description(CAP_STACK_TUBE)
    assert tube.get(KEY_SPATIAL_VARIATIONS) is None
    assert tube.get(KEY_SPATIAL_LOCATION) is not None


def test_extended_sensor_description_details(catalog):
    desc = catalog.description(STACK_EJECTOR_EXTENDED)
    assert desc.get(KEY_DEVICE_TYPE).value == "Light Sensor"
    assert desc.get(KEY_GPIO).value == 0
    assert desc.get(KEY_PART_ASSOCIATION).value == STACK_EJECTOR.id


def test_vacuum_grip_description_details(catalog):
    desc = catalog.description(VACUUM_GRIP)
    assert desc.get(KEY_SIGNAL_MAPPING).value == HIGH_SOLENOID_MAPPING
    assert desc.get(KEY_PART_ASSOCIATION).value == LOADER.id


def test_stack_ejector_positions_are_mutually_exclusive(catalog):
    xor = catalog.description(STACK_EJECTOR).get(KEY_SPATIAL_VARIATIONS).value
    names = {term.payload.value for term in xor.terms}
    assert names == {"Stack Ejector Retracted Position", "Stack Ejector Extended Position"}
    assert all(isinstance(t, Atom) for t in xor.terms)


def test_measurement_table_reference_constants():
    assert X.STATION1_EDGE_LEFT == 0
    assert X.STACK_EJECTOR_RIGHT == 85
    assert Y.STATION1_EDGE_FRONT == 0
    assert Y.STACK_EJECTOR_FRONT == 76
    assert Y.EXTEND_SENSOR_FRONT == 76 + 122 == 198
    assert Y.RETRACT_SENSOR_FRONT == 76 + 236 == 312
    assert Z.BASE == 0
    assert Z.EXTEND_RETRACT_SENSOR_BOTTOM == 4
    assert Z.EXTEND_RETRACT_SENSOR_TOP == 20
    assert Height.EXTEND_RETRACT_SENSOR == 20 - 4 == 16


def test_sensor_boxes_match_the_layered_measurements(catalog):
    boxes = sensor_boxes(catalog)
    assert boxes[STACK_EJECTOR_EXTENDED] == Box3D(53, 198, 4, 85, 208, 20)
    assert boxes[STACK_EJECTOR_RETRACTED] == Box3D(53, 312, 4, 85, 322, 20)
    assert boxes[STACK_EJECTOR_EXTENDED].volume() == 5120
    # moving devices declare no fixed occupancy
    assert VACUUM_GRIP not in boxes
    assert WORKPIECE_GRIPPED not in boxes
    assert set(boxes) <= set(catalog.sensors)


def test_sensor_boxes_are_pairwise_disjoint(catalog):
    boxes = sensor_boxes(catalog)
    for a, b in itertools.combinations(boxes, 2):
        assert not boxes[a].overlaps(boxes[b]), f"{a} overlaps {b}"


def test_gpio_pins_are_unique_across_devices(catalog):
    pins = [catalog.gpio(d) for d in itertools.chain(catalog.actuators, catalog.sensors)]
    assert len(pins) == len(set(pins))
    assert catalog.gpio(STACK_EJECTOR_EXTENDED) == 0
    assert catalog.gpio(STACK_EJECTOR_RETRACTED) == 3
    assert catalog.gpio(VACUUM_GRIP) == 5


def test_signal_mappings_map_levels_to_distinct_names(catalog):
    for device in itertools.chain(catalog.actuators, catalog.sensors):
        mapping = catalog.signal_mapping(device)
        assert mapping.high.name != mapping.low.name
        assert mapping.high.signal is Signal.HIGH
        assert mapping.low.signal is Signal.LOW


def test_signal_mapping_table_is_what_the_descriptions_hold(catalog):
    from capstation.station import SIGNAL_MAPPINGS

    wired = itertools.chain(catalog.actuators, catalog.sensors)
    assert SIGNAL_MAPPINGS == {device: catalog.signal_mapping(device) for device in wired}


def test_part_associations_point_at_parts(catalog):
    for device in itertools.chain(catalog.actuators, catalog.sensors):
        part = ComponentId(catalog.description(device).get(KEY_PART_ASSOCIATION).value)
        assert catalog.kind(part) is DeviceKind.PART


def test_all_three_topologies_present(catalog):
    assert set(catalog.topologies) == set(TopologyName)


def test_process_sequence_involves_only_sensors(catalog):
    g = catalog.topologies[TopologyName.PROCESS_SEQUENCE]
    assert g.nodes() <= set(SENSORS)
    for edge in g.edges:
        assert isinstance(edge.annotation, TemporalCorrelation)


def test_process_sequence_documented_edge():
    g = build_process_sequence()
    edge = g.edges[0]
    assert (edge.source, edge.target) == (LOADER_PICKED_UP, LOADER_DROPPED_OFF)
    ann = edge.annotation
    assert ann.cause.name == "Obstructed"
    assert ann.effect.name == "Obstructed"
    assert ann.duration.value_at_zero() == 3


def test_process_sequence_is_acyclic():
    g = build_process_sequence()
    adjacency = {n: [e.target for e in g.edges if e.source == n] for n in g.nodes()}

    def has_cycle():
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in adjacency}

        def visit(n):
            color[n] = GRAY
            for m in adjacency[n]:
                if color[m] == GRAY or (color[m] == WHITE and visit(m)):
                    return True
            color[n] = BLACK
            return False

        return any(color[n] == WHITE and visit(n) for n in adjacency)

    assert not has_cycle()


def test_causality_documented_edge_and_node_kinds(catalog):
    g = build_causality()
    for edge in g.edges:
        assert catalog.kind(edge.source) is DeviceKind.ACTUATOR
        assert catalog.kind(edge.target) is DeviceKind.SENSOR
        assert isinstance(edge.annotation, TemporalConstraint)
        assert edge.annotation.inverse is False
    documented = documented_edge(catalog, TopologyName.CAUSALITY)
    ann = documented.annotation
    assert (documented.source, documented.target) == (STACK_EJECTOR_EXTEND, STACK_EJECTOR_RETRACTED)
    assert ann.cause.name == "Active"
    assert ann.effect.name == "Unobstructed"
    assert ann.range.minimum.value_at_zero() == 200
    assert ann.range.maximum.value_at_zero() == 300


def test_causality_has_the_symmetric_retraction_edge():
    g = build_causality()
    hits = [
        e for e in g.edges
        if e.source == STACK_EJECTOR_EXTEND and e.target == STACK_EJECTOR_EXTENDED
        and e.annotation.cause.name == "Passive" and e.annotation.effect.name == "Unobstructed"
    ]
    assert len(hits) == 1
    ann = hits[0].annotation
    assert (ann.range.minimum.value_at_zero(), ann.range.maximum.value_at_zero()) == (200, 300)


def test_avoidance_documented_edge_and_node_kinds(catalog):
    g = build_avoidance()
    assert g.nodes() <= set(ACTUATORS)
    edge = documented_edge(catalog, TopologyName.AVOIDANCE)
    ann = edge.annotation
    assert (edge.source, edge.target) == (STACK_EJECTOR_EXTEND, LOADER_PICKUP)
    assert ann.cause.name == "Active"
    assert ann.effect.name == "Passive"
    assert ann.range.minimum.value_at_zero() == -500
    assert ann.range.maximum.value_at_zero() == 1000


def test_synthetic_edges_are_flagged(catalog):
    for name, graph in catalog.topologies.items():
        documented = [
            e for e in graph.edges if not catalog.is_synthetic_edge(name, e)
        ]
        assert len(documented) == 1, f"{name} should carry exactly one documented edge"


def test_synthetic_entries_exclude_documented_facts(catalog):
    assert (STACK_EJECTOR_EXTENDED, KEY_GPIO) not in catalog.synthetic_entries
    assert (STACK_EJECTOR_EXTENDED, KEY_SPATIAL_LOCATION) not in catalog.synthetic_entries
    assert (VACUUM_GRIP, KEY_SIGNAL_MAPPING) not in catalog.synthetic_entries
    assert (STACK_EMPTY, KEY_SPATIAL_LOCATION) in catalog.synthetic_entries
    assert (STACK_EJECTOR, KEY_SPATIAL_LOCATION) in catalog.synthetic_entries


def test_parts_inventory_layout():
    assert set(PARTS) == EXPECTED_PARTS


def test_unknown_device_lookup_raises(catalog):
    from capstation.errors import UnknownDeviceError

    with pytest.raises(UnknownDeviceError):
        catalog.kind(ComponentId("Bottle Filler"))
