from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
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
from capstation.monitor import CompiledRule, Outcome, RuleKind, Verdict
from capstation.station import TopologyName, documented_edge
from capstation.wire import (
    catalog_to_obj,
    duration_to_obj,
    edge_to_obj,
    event_from_obj,
    event_to_obj,
    read_faults,
    read_script,
    read_trace,
    verdict_to_obj,
    write_report,
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
        list(read_trace(io.StringIO(json.dumps(line) + "\n"), kinds=catalog.devices))


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
        list(read_trace(io.StringIO(text), kinds=catalog.devices))
    assert str(err.value) == "line 2: missing key 'state'"


def test_a_duration_anchored_at_a_non_state_does_not_serialize():
    with pytest.raises(UnsupportedAnnotationError):
        duration_to_obj(relative_duration("cause time", 5))


def test_unannotated_edges_do_not_serialize():
    from capstation.core.graph import EdgeAnn

    with pytest.raises(UnsupportedAnnotationError):
        edge_to_obj(EdgeAnn(ComponentId("A"), ComponentId("B")))


def test_trace_round_trip(catalog, nominal_trace, tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), nominal_trace)
    back = list(read_trace(str(path), kinds=catalog.devices))
    assert back == nominal_trace


def test_empty_trace_file_reads_back_empty(catalog, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert list(read_trace(str(path), kinds=catalog.devices)) == []


def test_shuffled_trace_rejected(catalog, nominal_trace, tmp_path):
    buf = io.StringIO()
    write_trace(buf, nominal_trace)
    lines = buf.getvalue().strip().splitlines()
    lines[0], lines[-1] = lines[-1], lines[0]
    path = tmp_path / "shuffled.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfOrderEventError) as err:
        list(read_trace(str(path), kinds=catalog.devices))
    assert err.value.line is not None


def test_malformed_trace_line_reports_its_number(catalog, tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "PhysicalEvent"\n')
    with pytest.raises(MalformedJsonError) as err:
        list(read_trace(str(path), kinds=catalog.devices))
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


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_trace_errors_count_blank_lines(catalog, tmp_path, newline):
    good = json.dumps(
        {"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 0,
         "state": {"type": "Obstructed", "signal": "Low"}}
    )
    data = newline.join([good, "", "   ", good, "{broken"]) + newline
    path = tmp_path / "trace.jsonl"
    path.write_bytes(data.encode())
    for source in (io.StringIO(data), str(path)):
        with pytest.raises(MalformedJsonError) as err:
            list(read_trace(source, kinds=catalog.devices))
        assert err.value.line == 5
        assert str(err.value).startswith("line 5: ")


def test_report_bytes_equal_one_indented_dump(catalog, faulty_trace):
    from capstation.monitor import check_trace

    for trace in ([], faulty_trace):
        verdicts = list(check_trace(catalog, "all", trace))
        buf = io.StringIO()
        assert list(write_report(buf, verdicts)) == verdicts
        assert buf.getvalue() == json.dumps([verdict_to_obj(v) for v in verdicts], indent=2) + "\n"


# -- the writers' templates against the reference encoders -------------------------

# names that json must escape, and ones that spell the text a template is split at
awkward_names = st.one_of(
    st.text(alphabet='az "\\\x00\x1f\n\u00e9\u2603\U0001f600:,{}[]', min_size=1, max_size=8),
    st.sampled_from(['"timepoint": 0', ',\n    "cause_event"', '\\"', "x\\"]),
    st.text(min_size=1, max_size=8),
)
times = st.integers(-10**6, 10**6)


@st.composite
def event_pools(draw):
    """Events at a given time over a few devices and states, so that they repeat."""
    devices = draw(st.lists(st.builds(ComponentId, awkward_names), min_size=1, max_size=3))
    levels = st.sampled_from([Signal.HIGH, Signal.LOW])
    states = draw(st.lists(st.builds(DeviceState, awkward_names, levels), min_size=1, max_size=3))
    return lambda t: st.builds(
        PhysicalEvent, st.sampled_from(devices), st.just(DeviceKind.SENSOR), st.just(TimePoint(t)),
        st.sampled_from(states),
    )


@st.composite
def verdict_lists(draw):
    event = draw(event_pools())
    ids = st.builds(ComponentId, awkward_names)
    specs = st.builds(DeviceState, awkward_names, st.sampled_from(list(Signal)))
    rules = [
        CompiledRule(
            draw(st.integers(0, 1)), draw(awkward_names), draw(ids), draw(ids), draw(specs),
            draw(specs), draw(times), draw(times), draw(st.booleans()),
            draw(st.sampled_from(list(RuleKind))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    verdicts = []
    for _ in range(draw(st.integers(0, 5))):
        rule = draw(st.sampled_from(rules))
        outcomes = [o for o in Outcome if rule.inverse or o is not Outcome.VIOLATED_FORBIDDEN]
        witness = draw(event(draw(times))) if draw(st.booleans()) else None
        verdicts.append(Verdict(
            rule, draw(event(draw(times))), draw(st.sampled_from(outcomes)), witness, draw(times),
            (draw(times), draw(times)),
        ))
    return verdicts


def _forbidden() -> Verdict:
    state = DeviceState("Obstructed", Signal.HIGH)
    rule = CompiledRule(0, "t", ComponentId("a"), ComponentId("b"), state, state, -5, 5, True,
                        RuleKind.CONSTRAINT)
    event = PhysicalEvent(ComponentId("a"), DeviceKind.SENSOR, TimePoint(0), state)
    return Verdict(rule, event, Outcome.VIOLATED_FORBIDDEN, event, 0, (-5, 5))


@settings(max_examples=300, deadline=None)
@given(verdict_lists())
@example([])
@example([_forbidden()])
def test_report_template_equals_the_reference_dump(verdicts):
    objs = [verdict_to_obj(v) for v in verdicts]
    out, drawn = io.StringIO(), []

    def source():
        for verdict in verdicts:
            drawn.append(verdict)
            yield verdict

    for k, verdict in enumerate(write_report(out, source())):
        # verdict k is written when it is yielded, and verdict k + 1 not yet drawn
        assert verdict is verdicts[k] and len(drawn) == k + 1
        assert out.getvalue() == json.dumps(objs[: k + 1], indent=2)[: -len("\n]")]
    assert out.getvalue() == json.dumps(objs, indent=2) + "\n"


@st.composite
def traces(draw):
    event = draw(event_pools())
    return [draw(event(t)) for t in sorted(draw(st.lists(times, max_size=8)))]


@settings(max_examples=200, deadline=None)
@given(traces())
def test_trace_template_equals_the_reference_dump(events):
    out = io.StringIO()
    write_trace(out, events)
    assert out.getvalue() == "".join(json.dumps(event_to_obj(e)) + "\n" for e in events)


_SHAPE_FAULTS = {
    "extra-key": lambda obj: {**obj, "extra": 1},
    "missing-key": lambda obj: {k: v for k, v in obj.items() if k != "timepoint"},
    "bool-time": lambda obj: {**obj, "timepoint": True},
    "float-time": lambda obj: {**obj, "timepoint": 5.0},
    "other-tag": lambda obj: {**obj, "type": "Mystery"},
    "state-extra-key": lambda obj: {**obj, "state": {**obj["state"], "extra": 1}},
    "state-no-signal": lambda obj: {**obj, "state": {"type": obj["state"]["type"]}},
    "state-list": lambda obj: {**obj, "state": list(obj["state"].values())},
    "component-list": lambda obj: {**obj, "component": [obj["component"]]},
    "not-an-object": lambda obj: [obj],
}


@pytest.mark.parametrize("fault", sorted(_SHAPE_FAULTS))
def test_a_seen_device_and_state_still_get_every_check(catalog, fault):
    good = {"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 0,
            "state": {"type": "Obstructed", "signal": "Low"}}
    bad = json.dumps(_SHAPE_FAULTS[fault](good)) + "\n"

    def error(text):
        with pytest.raises(Exception) as err:
            list(read_trace(io.StringIO(text), kinds=catalog.devices))
        return err.value

    alone, after = error(bad), error(json.dumps(good) + "\n" + bad)
    assert type(after) is type(alone)
    assert str(after) == str(alone).replace("line 1", "line 2", 1)
