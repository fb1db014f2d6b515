from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.graph import TemporalCorrelation
from capstation.core.timing import TimePoint, relative_duration
from capstation.devices import DeviceKind, DeviceState, PhysicalEvent, Signal, abstract_state
from capstation.errors import (
    MalformedJsonError,
    OutOfOrderEventError,
    SchemaViolationError,
    UnknownDeviceError,
    UnknownTypeTagError,
    UnsupportedAnnotationError,
)
from capstation.station import (
    LOADER_DROPPED_OFF,
    LOADER_PICKED_UP,
    TopologyName,
    documented_edge,
)
from capstation.wire import (
    catalog_to_obj,
    component_value_to_obj,
    component_value_from_obj,
    description_from_obj,
    description_to_obj,
    edge_from_json,
    edge_from_obj,
    edge_to_obj,
    event_from_obj,
    event_to_obj,
    read_script,
    read_trace,
    write_script,
    write_trace,
)

GOLDEN_NAMES = {
    TopologyName.PROCESS_SEQUENCE: "process_sequence_edge.json",
    TopologyName.CAUSALITY: "causality_edge.json",
    TopologyName.AVOIDANCE: "avoidance_edge.json",
}


@pytest.mark.parametrize("topology", list(TopologyName), ids=lambda t: t.value)
def test_documented_edges_serialize_to_the_golden_structure(catalog, golden_dir, topology):
    golden = json.loads((golden_dir / GOLDEN_NAMES[topology]).read_text())
    ours = edge_to_obj(documented_edge(catalog, topology))
    assert ours == golden


@pytest.mark.parametrize("topology", list(TopologyName), ids=lambda t: t.value)
def test_golden_fixtures_decode_and_re_encode_identically(catalog, golden_dir, topology):
    text = (golden_dir / GOLDEN_NAMES[topology]).read_text()
    edge = edge_from_json(text)
    assert edge_to_obj(edge) == json.loads(text)


def test_decoded_process_edge_contents(golden_dir):
    edge = edge_from_json((golden_dir / "process_sequence_edge.json").read_text())
    assert edge.source == LOADER_PICKED_UP
    assert edge.target == LOADER_DROPPED_OFF
    assert isinstance(edge.annotation, TemporalCorrelation)
    assert edge.annotation.duration.value_at_zero() == 3


def test_negative_window_bound_survives_the_round_trip(catalog):
    edge = documented_edge(catalog, TopologyName.AVOIDANCE)
    obj = edge_to_obj(edge)
    rebuilt = edge_from_obj(obj)
    assert rebuilt == edge
    assert rebuilt.annotation.range.minimum.value_at_zero() == -500
    text = json.dumps(obj)
    assert '"expression": -500' in text


def test_unknown_type_tag_rejected():
    with pytest.raises(UnknownTypeTagError):
        edge_from_json('{"type": "Mystery"}')


def test_truncated_json_rejected():
    with pytest.raises(MalformedJsonError):
        edge_from_json('{"type": "EdgeAnnotated", "source"')


def test_missing_keys_report_their_path(catalog):
    obj = edge_to_obj(documented_edge(catalog, TopologyName.CAUSALITY))
    del obj["annotation"]["durationRange"]
    with pytest.raises(SchemaViolationError) as err:
        edge_from_obj(obj)
    assert "durationRange" in str(err.value)


def test_unannotated_edges_do_not_serialize():
    from capstation.core.graph import EdgeAnn

    with pytest.raises(UnsupportedAnnotationError):
        edge_to_obj(EdgeAnn(ComponentId("A"), ComponentId("B")))


def test_trace_round_trip(catalog, nominal_trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), nominal_trace)
    back = read_trace(str(path), kinds=catalog.devices)
    assert back == nominal_trace


def test_empty_trace_file_reads_back_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_trace(str(path)) == []


def test_shuffled_trace_rejected(catalog, nominal_trace, tmp_path):
    buf = io.StringIO()
    write_trace(buf, nominal_trace)
    lines = buf.getvalue().strip().splitlines()
    lines[0], lines[-1] = lines[-1], lines[0]
    path = tmp_path / "shuffled.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfOrderEventError) as err:
        read_trace(str(path), kinds=catalog.devices)
    assert err.value.line is not None


def test_malformed_trace_line_reports_its_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "PhysicalEvent"\n')
    with pytest.raises(MalformedJsonError) as err:
        read_trace(str(path))
    assert err.value.line == 1


def test_writing_unordered_events_is_rejected(catalog, nominal_trace):
    with pytest.raises(OutOfOrderEventError):
        write_trace(io.StringIO(), list(reversed(nominal_trace)))


def test_trace_events_resolve_kinds_from_the_station_by_default(nominal_trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), nominal_trace)
    back = read_trace(str(path))
    assert [e.kind for e in back] == [e.kind for e in nominal_trace]


def test_unknown_trace_device_rejected():
    obj = {
        "type": "PhysicalEvent",
        "component": "Ghost",
        "timepoint": 0,
        "state": {"type": "Active", "signal": "High"},
    }
    with pytest.raises(UnknownDeviceError):
        event_from_obj(obj, kinds={})


def test_event_state_requires_a_signal(catalog):
    obj = {
        "type": "PhysicalEvent",
        "component": "Stack Empty",
        "timepoint": 0,
        "state": {"type": "Obstructed"},
    }
    with pytest.raises(SchemaViolationError):
        event_from_obj(obj, kinds=catalog.devices)


def test_script_round_trip(tmp_path):
    from capstation.scenarios import nominal_script

    path = tmp_path / "script.jsonl"
    write_script(str(path), nominal_script())
    assert read_script(str(path)) == nominal_script()


# -- structural round-trips over generated values -----------------------------------

names = st.sampled_from(["Active", "Passive", "Obstructed", "Unobstructed", "Gripped", "Released"])
spec_states = st.builds(
    DeviceState, names, st.sampled_from([Signal.HIGH, Signal.LOW, Signal.DONT_CARE])
)
concrete_states = st.builds(DeviceState, names, st.sampled_from([Signal.HIGH, Signal.LOW]))
device_ids = st.builds(ComponentId, st.text(min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(device_ids, concrete_states, st.integers(-10**6, 10**6))
def test_event_round_trip(device, state, t):
    event = PhysicalEvent(device, DeviceKind.SENSOR, TimePoint(t), state)
    back = event_from_obj(event_to_obj(event), kinds={device: DeviceKind.SENSOR})
    assert back == event


@settings(max_examples=100, deadline=None)
@given(spec_states, st.integers(-5000, 5000), st.integers(-5000, 5000), spec_states, spec_states)
def test_annotation_round_trip(anchor, lo, hi, cause, effect):
    from capstation.core.graph import EdgeAnn, TemporalConstraint
    from capstation.core.timing import TimeDurationRange

    lo, hi = sorted((lo, hi))
    edge = EdgeAnn(
        ComponentId("A"),
        ComponentId("B"),
        TemporalConstraint(
            cause,
            TimeDurationRange(relative_duration(anchor, lo), relative_duration(anchor, hi)),
            effect,
            inverse=(lo + hi) % 2 == 0,
        ),
    )
    assert edge_from_obj(edge_to_obj(edge)) == edge


def test_description_round_trip(catalog):
    for device in catalog.devices:
        desc = catalog.description(device)
        assert description_from_obj(description_to_obj(desc)) == desc


def test_component_value_round_trip_all_kinds(catalog):
    seen = set()
    for desc in catalog.descriptions.values():
        for _, value in desc.entries:
            seen.add(value.kind)
            assert component_value_from_obj(component_value_to_obj(value)) == value
    assert len(seen) >= 5  # string, integer, box, signal mapping, variations


def test_catalog_dump_shape(catalog):
    dump = catalog_to_obj(catalog)
    assert set(dump) == {
        "devices", "descriptions", "topologies", "synthetic_edges", "synthetic_entries",
    }
    assert dump["devices"]["Stack Ejector Extend"] == "Actuator"
    assert len(dump["topologies"]) == 3
    json.dumps(dump)  # fully JSON-serializable


def test_abstract_event_state_cannot_be_built():
    with pytest.raises(Exception):
        PhysicalEvent(
            ComponentId("Stack Empty"), DeviceKind.SENSOR, TimePoint(0), abstract_state("Obstructed")
        )


def test_topology_graph_round_trip(catalog):
    from capstation.wire import graph_from_obj, graph_to_obj

    for graph in catalog.topologies.values():
        assert graph_from_obj(graph_to_obj(graph)) == graph


def test_trace_line_shape(nominal_trace):
    buf = io.StringIO()
    write_trace(buf, nominal_trace[:7])
    line = json.loads(buf.getvalue().splitlines()[6])
    assert line == {
        "type": "PhysicalEvent",
        "component": "Loader Dropoff",
        "timepoint": 2200,
        "state": {"type": "Active", "signal": "High"},
    }
