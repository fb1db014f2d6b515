from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.graph import EdgeAnn, TemporalConstraint
from capstation.core.timing import TimeDurationRange, TimePoint, relative_duration
from capstation.devices import DeviceKind, DeviceState, PhysicalEvent, Signal, abstract_state
from capstation.errors import (
    MalformedJsonError,
    OutOfOrderEventError,
    SchemaViolationError,
    UnknownDeviceError,
    UnknownTypeTagError,
    UnsupportedAnnotationError,
)
from capstation.station import TopologyName, documented_edge
from capstation.wire import (
    catalog_to_obj,
    edge_to_obj,
    event_from_obj,
    event_to_obj,
    read_faults,
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


def test_negative_window_bound_survives_the_round_trip(catalog):
    obj = edge_to_obj(documented_edge(catalog, TopologyName.AVOIDANCE))
    text = json.dumps(obj)
    assert '"expression": -500' in text
    assert json.loads(text) == obj


def test_inverse_constraint_writes_the_inverse_flag():
    anchor = abstract_state("Active")
    window = TimeDurationRange(relative_duration(anchor, 0), relative_duration(anchor, 100))

    def annotation(inverse):
        constraint = TemporalConstraint(anchor, window, abstract_state("Passive"), inverse)
        return edge_to_obj(EdgeAnn(ComponentId("A"), ComponentId("B"), constraint))["annotation"]

    assert annotation(True)["inverse"] is True
    assert "inverse" not in annotation(False)


def test_unknown_type_tag_rejected(catalog):
    line = {"type": "Mystery", "component": "Stack Empty", "timepoint": 0,
            "state": {"type": "Obstructed", "signal": "Low"}}
    with pytest.raises(UnknownTypeTagError):
        read_trace(io.StringIO(json.dumps(line) + "\n"), kinds=catalog.devices)


def test_truncated_json_rejected():
    with pytest.raises(MalformedJsonError):
        read_faults(io.StringIO('[{"fault": "drop-events", "device"'))


def test_missing_keys_report_their_path(catalog):
    lines = [
        {"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 0,
         "state": {"type": "Obstructed", "signal": "Low"}},
        {"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 10},
    ]
    text = "".join(json.dumps(line) + "\n" for line in lines)
    with pytest.raises(SchemaViolationError) as err:
        read_trace(io.StringIO(text), kinds=catalog.devices)
    assert str(err.value) == "line 2: missing key 'state'"


def test_unannotated_edges_do_not_serialize():
    from capstation.core.graph import EdgeAnn

    with pytest.raises(UnsupportedAnnotationError):
        edge_to_obj(EdgeAnn(ComponentId("A"), ComponentId("B")))


def test_trace_round_trip(catalog, nominal_trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), nominal_trace)
    back = read_trace(str(path), kinds=catalog.devices)
    assert back == nominal_trace


def test_empty_trace_file_reads_back_empty(catalog, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_trace(str(path), kinds=catalog.devices) == []


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


def test_malformed_trace_line_reports_its_number(catalog, tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "PhysicalEvent"\n')
    with pytest.raises(MalformedJsonError) as err:
        read_trace(str(path), kinds=catalog.devices)
    assert err.value.line == 1


def test_writing_unordered_events_is_rejected(catalog, nominal_trace):
    with pytest.raises(OutOfOrderEventError):
        write_trace(io.StringIO(), list(reversed(nominal_trace)))


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
concrete_states = st.builds(DeviceState, names, st.sampled_from([Signal.HIGH, Signal.LOW]))
device_ids = st.builds(ComponentId, st.text(min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(device_ids, concrete_states, st.integers(-10**6, 10**6))
def test_event_round_trip(device, state, t):
    event = PhysicalEvent(device, DeviceKind.SENSOR, TimePoint(t), state)
    back = event_from_obj(event_to_obj(event), kinds={device: DeviceKind.SENSOR})
    assert back == event


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
