from __future__ import annotations

import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.graph import EdgeAnn, TemporalConstraint, TemporalCorrelation
from capstation.core.timing import TimeDurationRange, TimePoint, relative_duration
from capstation.devices import (
    KNOWN_STATE_NAMES,
    Command,
    DeviceKind,
    DeviceState,
    PhysicalEvent,
    Signal,
    abstract_state,
)
from capstation.errors import (
    MalformedJsonError,
    ModelError,
    OutOfOrderEventError,
    SchemaViolationError,
    UnknownDeviceError,
    UnknownTypeTagError,
    UnsupportedAnnotationError,
)
from capstation.monitor import (
    CompiledRule,
    MonitorConfig,
    Outcome,
    RuleKind,
    Verdict,
    compile_edge,
)
from capstation.station import ACTUATORS, SIGNAL_MAPPINGS, TopologyName, documented_edge
from capstation.wire import (
    catalog_to_obj,
    duration_to_obj,
    edge_to_obj,
    event_from_obj,
    event_to_obj,
    read_faults,
    read_script,
    read_trace,
    script_file,
    script_to_lines,
    verdict_to_obj,
    write_report,
    write_script,
    write_trace,
)
from capstation.wire.common import _BATCH_LINES

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


_OBSTRUCTED = DeviceState("Obstructed", Signal.HIGH)
# case: (annotation, compile_edge's message, edge_to_obj's message)
_UNSUPPORTED = {
    "unannotated": (None, "unsupported annotation: None", "unsupported annotation: None"),
    "unknown-object": (
        "a note", "unsupported annotation: 'a note'", "unsupported annotation: 'a note'"
    ),
    "non-state-correlation-cause": (
        TemporalCorrelation("cause time", relative_duration(_OBSTRUCTED, 5), _OBSTRUCTED),
        "rule states must be device states", "annotation states must be device states",
    ),
    "non-state-constraint-cause": (
        TemporalConstraint(
            "cause time",
            TimeDurationRange(relative_duration(_OBSTRUCTED, 0), relative_duration(_OBSTRUCTED, 5)),
            _OBSTRUCTED,
        ),
        "rule states must be device states", "annotation states must be device states",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNSUPPORTED))
def test_unsupported_annotations_are_rejected_by_the_monitor_and_the_writer(case):
    annotation, compiled, written = _UNSUPPORTED[case]
    edge = EdgeAnn(ComponentId("A"), ComponentId("B"), annotation)
    with pytest.raises(UnsupportedAnnotationError) as err:
        compile_edge(edge, MonitorConfig())
    assert str(err.value) == compiled
    with pytest.raises(UnsupportedAnnotationError) as err:
        edge_to_obj(edge)
    assert str(err.value) == written


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


@pytest.mark.parametrize("change, read", [("shorter", "2"), ("longer", "more")])
def test_a_script_file_that_changes_between_its_two_reads_is_an_error(tmp_path, change, read):
    from capstation.scenarios import nominal_script

    path = tmp_path / "script.jsonl"
    write_script(str(path), nominal_script())
    lines = path.read_text().splitlines(keepends=True)
    got = []
    with script_file(str(path)) as commands:  # the first pass has checked every line
        path.write_text("".join(lines[:2] if change == "shorter" else lines + lines[-1:]))
        message = f"changed while it was read: {len(lines)} commands checked, then {read} read"
        with pytest.raises(SchemaViolationError, match=message):
            got.extend(commands)
    assert got == list(nominal_script()[: len(got)])
    assert len(got) == (2 if change == "shorter" else len(lines))


def test_a_bad_byte_on_the_second_pass_of_a_script_file_names_its_line(tmp_path):
    from capstation.scenarios import nominal_script

    path = tmp_path / "script.jsonl"
    write_script(str(path), nominal_script())
    lines = path.read_bytes().splitlines(keepends=True)
    got = []
    with script_file(str(path)) as commands:  # the first pass has checked every line
        path.write_bytes(b"".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:]))
        with pytest.raises(MalformedJsonError, match="^line 3: not UTF-8: byte 0xff at column 1$"):
            got.extend(commands)
    assert got == list(nominal_script()[:2])


def _station_events(count):
    """`count` time-ordered events of one station sensor, in its two states by turns."""
    device = ComponentId("Stack Empty")
    mapping = SIGNAL_MAPPINGS[device]
    return [
        PhysicalEvent(device, DeviceKind.SENSOR, TimePoint(10 + 10 * i), (mapping.high, mapping.low)[i % 2])
        for i in range(count)
    ]


def _line_per_event(events):
    return "".join(json.dumps(event_to_obj(e)) + "\n" for e in events)


class _CountedWrites(io.StringIO):
    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize(
    "count", [0, 1, _BATCH_LINES - 1, _BATCH_LINES, _BATCH_LINES + 1, 3 * _BATCH_LINES + 5]
)
def test_the_trace_is_written_in_batches_of_the_same_bytes(count):
    events = _station_events(count)
    out = _CountedWrites()
    write_trace(out, events)
    assert out.getvalue() == _line_per_event(events)
    assert out.calls == -(-count // _BATCH_LINES)


def _out_of_order(events):
    first = events[0]
    yield from events
    yield PhysicalEvent(first.device, first.kind, TimePoint(first.timepoint.t - 1), first.state)


def _failing(events):
    yield from events
    raise ValueError("the simulation failed")


@pytest.mark.parametrize("stop", [_out_of_order, _failing], ids=["out-of-order", "source-error"])
@pytest.mark.parametrize("k", [1, _BATCH_LINES - 1, _BATCH_LINES, _BATCH_LINES + 3])
def test_a_stopped_trace_keeps_the_lines_before_the_stop(stop, k):
    events = _station_events(k)
    out = io.StringIO()
    with pytest.raises((OutOfOrderEventError, ValueError)):
        write_trace(out, stop(events))
    assert out.getvalue() == _line_per_event(events)


def _stop_at(items, k, error):
    """The first k items, then the error that stops a failed run."""
    yield from items[:k]
    raise error(f"the run stopped after {k} items")


@settings(max_examples=120, deadline=None)
@given(
    writer=st.sampled_from(["trace", "report", "script"]),
    k=st.integers(0, 30),
    target=st.sampled_from(["new", "file", "symlink", "devnull"]),
    error=st.sampled_from([ModelError, KeyboardInterrupt]),
)
@example(writer="trace", k=3, target="new", error=ModelError)
@example(writer="report", k=3, target="new", error=KeyboardInterrupt)
@example(writer="script", k=3, target="new", error=ModelError)
def test_a_failed_writer_removes_only_the_file_it_created(
    catalog, faulty_trace, writer, k, target, error
):
    # a regular file the failed write created at a path is removed; a file, a
    # symlink or a device that was there before is kept, and the file holds
    # the output as far as it was written
    from capstation.monitor import check_trace
    from capstation.scenarios import nominal_script

    write, items = {
        "trace": (write_trace, faulty_trace),
        "report": (
            lambda out, verdicts: list(write_report(out, verdicts)),
            list(check_trace(catalog, "all", faulty_trace)),
        ),
        "script": (write_script, nominal_script()),
    }[writer]
    full = io.StringIO()
    write(full, items)
    with tempfile.TemporaryDirectory() as tmp:
        earlier = pathlib.Path(tmp) / "earlier"
        earlier.write_text("an earlier file\n")
        path = {"new": pathlib.Path(tmp) / "new", "file": earlier,
                "symlink": pathlib.Path(tmp) / "link", "devnull": pathlib.Path(os.devnull)}[target]
        if target == "symlink":
            path.symlink_to(earlier)
        with pytest.raises(error, match=f"stopped after {k} items"):
            write(str(path), _stop_at(items, k, error))
        assert os.path.lexists(path) == (target != "new")
        assert path.is_symlink() == (target == "symlink")
        written = earlier.read_text()
        if target in ("new", "devnull"):
            assert written == "an earlier file\n"
        else:
            assert full.getvalue().startswith(written)


_FLUSH_FAILS = """
import resource, signal, sys
from capstation.scenarios import nominal_script
from capstation.wire import write_script
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (100, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
write_script(sys.argv[1], nominal_script())
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit signal here")
def test_a_write_that_fails_as_the_file_closes_removes_the_file_it_created(tmp_path):
    # the script's 700 bytes wait in the stream's buffer until it closes, and
    # that flush fails past a 100-byte file size limit, after the body returned
    out = tmp_path / "script.jsonl"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FLUSH_FAILS, str(out)], env=env, capture_output=True)
    assert proc.returncode == 1 and b"File too large" in proc.stderr
    assert not os.path.lexists(out)


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


# -- read_trace against a reference that decodes every line -------------------------


def _reference_trace(text, kinds):
    """event_from_obj and the order check on every non-blank str.splitlines line."""
    last = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or more digits than int() converts
            raise MalformedJsonError(f"line {number}: {exc}", line=number) from exc
        event = event_from_obj(obj, kinds, f"line {number}")
        t = event.timepoint.t
        if last is not None and t < last:
            raise OutOfOrderEventError(f"line {number}: event at {t} after {last}", line=number)
        last = t
        yield event


def _drain(events):
    """The events read, and the error that stopped the reading as (type, message, line)."""
    out = []
    try:
        for event in events:
            out.append(event)
    except Exception as exc:
        return out, (type(exc), str(exc), getattr(exc, "line", None))
    return out, None


# each takes the lines' event objects, the index of the line to mutate and
# the draw function, and returns that line's new text
def _retimed(text):
    return lambda objs, i, draw: json.dumps(objs[i]).replace(
        f'"timepoint": {objs[i]["timepoint"]}', f'"timepoint": {text}'
    )


def _inserted(char):
    def insert(objs, i, draw):
        line = json.dumps(objs[i])
        at = draw(st.integers(0, len(line)))
        return line[:at] + char + line[at:]
    return insert


def _swapped_signal(objs, i, draw):
    """The device and state type of an earlier line, with the other signal."""
    seen = objs[draw(st.integers(0, max(i - 1, 0)))]
    level = "Low" if seen["state"]["signal"] == "High" else "High"
    state = {"type": seen["state"]["type"], "signal": level}
    return json.dumps({**objs[i], "component": seen["component"], "state": state})


def _foreign_state(objs, i, draw):
    """The device of an earlier line, in a state type it does not have."""
    seen = objs[draw(st.integers(0, max(i - 1, 0)))]
    mapping = SIGNAL_MAPPINGS[ComponentId(seen["component"])]
    name = draw(st.sampled_from(sorted(KNOWN_STATE_NAMES - {mapping.high.name, mapping.low.name})))
    state = {"type": name, "signal": objs[i]["state"]["signal"]}
    return json.dumps({**objs[i], "component": seen["component"], "state": state})


def _duplicated(objs, i, draw):
    key, value = draw(st.sampled_from([
        ("type", "Mystery"), ("component", "Ghost"), ("timepoint", 0),
        ("state", {"type": "Active"}), ("state", objs[i]["state"]),
    ]))
    pair, line = f"{json.dumps(key)}: {json.dumps(value)}", json.dumps(objs[i])
    # json.loads keeps the last of two equal keys
    return "{" + pair + ", " + line[1:] if draw(st.booleans()) else line[:-1] + ", " + pair + "}"


def _missing_key(objs, i, draw):
    obj = dict(objs[i])
    del obj[draw(st.sampled_from(sorted(obj)))]
    return json.dumps(obj)


def _blank_line_before(objs, i, draw):
    """A blank line, which is counted but not read, then the line unchanged."""
    return draw(st.sampled_from(["", " ", "\t"])) + "\n" + json.dumps(objs[i])


def _reversed(obj: dict) -> dict:
    return {k: _reversed(v) if isinstance(v, dict) else v for k, v in reversed(list(obj.items()))}


_LOOSE = (" ,\t", " :  ")  # json.dumps separators with extra whitespace
_LINE_MUTATIONS = {
    "whitespace": lambda objs, i, draw: " " + json.dumps(objs[i], separators=_LOOSE) + "\t ",
    "key-order": lambda objs, i, draw: json.dumps(_reversed(objs[i])),
    "duplicate-key": _duplicated,
    "extra-key": lambda objs, i, draw: json.dumps({**objs[i], "extra": None}),
    "missing-key": _missing_key,
    "time-minus-zero": _retimed("-0"),
    "time-float": _retimed("1.0"),
    "time-exponent": _retimed("1e3"),
    "time-true": _retimed("true"),
    "time-30-digits": _retimed("1" * 30),
    "time-5000-digits": _retimed("1" * 5000),  # json.loads raises a plain ValueError
    # int() reads each of these, and str.isdigit accepts the non-ASCII digits
    "time-leading-zero": _retimed("01"),
    "time-plus": _retimed("+1"),
    "time-underscore": _retimed("1_000"),
    "time-arabic-indic": _retimed("\u0661\u0662"),
    "time-fullwidth": _retimed("\uff11\uff12"),
    "time-superscript": _retimed("\u00b2"),
    "vertical-tab": _inserted("\x0b"),
    "line-separator": _inserted("\u2028"),
    "crlf": lambda objs, i, draw: json.dumps(objs[i]) + "\r",
    "blank-line-before": _blank_line_before,
    "swapped-signal": _swapped_signal,
    "foreign-state": _foreign_state,
}


@st.composite
def mutated_station_traces(draw):
    """A valid trace on a few station devices, so that lines repeat, as
    write_trace writes it, from a start time that may be negative; then one
    to three of its lines mutated, and maybe no newline after the last."""
    pool = draw(st.lists(st.sampled_from(sorted(SIGNAL_MAPPINGS)), min_size=1, max_size=2))
    changes = st.tuples(
        st.sampled_from(pool), st.sampled_from([Signal.HIGH, Signal.LOW]), st.integers(0, 1500)
    )
    events, t = [], draw(st.integers(-20000, 1000))
    for device, signal, gap in draw(st.lists(changes, min_size=1, max_size=40)):
        t += gap
        state = SIGNAL_MAPPINGS[device](signal)
        events.append(PhysicalEvent(device, DeviceKind.SENSOR, TimePoint(t), state))
    out = io.StringIO()
    write_trace(out, events)
    lines = out.getvalue().splitlines()
    objs = [event_to_obj(e) for e in events]
    last = len(events) - 1
    # counted from the end, so that a mutated line tends to follow lines like it
    for i in draw(st.lists(st.integers(0, last).map(lambda k: last - k), min_size=1, max_size=3, unique=True)):
        lines[i] = _LINE_MUTATIONS[draw(st.sampled_from(sorted(_LINE_MUTATIONS)))](objs, i, draw)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=400, deadline=None)
@given(mutated_station_traces())
def test_read_trace_equals_the_reference_reader(catalog, text):
    expected = _drain(_reference_trace(text, catalog.devices))
    assert _drain(read_trace(io.StringIO(text), kinds=catalog.devices)) == expected


def _reference_script(text):
    """read_script with every non-blank str.splitlines line read by json.loads and checked."""
    actuators = {actuator.id: actuator for actuator in ACTUATORS}
    commands = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        path = f"line {number}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
            raise MalformedJsonError(f"line {number}: {exc}", line=number) from exc
        if not isinstance(obj, dict):
            raise SchemaViolationError(path, f"expected an object, got {type(obj).__name__}")
        for key in ("time_ms", "actuator", "signal"):
            if key not in obj:
                raise SchemaViolationError(path, f"missing key {key!r}")
        for key in obj:
            if key not in ("time_ms", "actuator", "signal"):
                raise SchemaViolationError(path, f"unexpected key {key!r}")
        if obj["signal"] not in ("High", "Low") or not isinstance(obj["signal"], str):
            raise SchemaViolationError(f"{path}.signal", "signal must be High or Low")
        time = obj["time_ms"]
        if isinstance(time, bool) or not isinstance(time, int):
            raise SchemaViolationError(f"{path}.time_ms", f"expected an integer, got {time!r}")
        if commands and time < commands[-1].time:
            raise SchemaViolationError(
                path, f"time_ms {time} is earlier than the previous line's {commands[-1].time}"
            )
        name = obj["actuator"]
        if not isinstance(name, str) or not name:
            raise SchemaViolationError(f"{path}.actuator", "expected a non-empty string")
        if name not in actuators:
            raise SchemaViolationError(f"{path}.actuator", f"unknown actuator: {name}")
        commands.append(Command(time, actuators[name], Signal(obj["signal"])))
    return tuple(commands)


def _script_read(read, text):
    """The commands read, or the error as (type, message, line)."""
    try:
        return read(text), None
    except Exception as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


def _script_file_read(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "script.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with script_file(str(path)) as commands:
            return tuple(commands)


def _script_retimed(text):
    return lambda objs, i, draw: json.dumps(objs[i]).replace(
        f'"time_ms": {objs[i]["time_ms"]}', f'"time_ms": {text}'
    )


def _earlier(objs, i, draw):
    """The line with a time before an earlier line's."""
    before = objs[draw(st.integers(0, max(i - 1, 0)))]["time_ms"]
    return json.dumps({**objs[i], "time_ms": before - draw(st.integers(0, 3))})


_SCRIPT_MUTATIONS = {
    "whitespace": lambda objs, i, draw: " " + json.dumps(objs[i], separators=_LOOSE) + "\t ",
    "key-order": lambda objs, i, draw: json.dumps(_reversed(objs[i])),
    "extra-key": lambda objs, i, draw: json.dumps({**objs[i], "extra": None}),
    "duplicate-key": lambda objs, i, draw: json.dumps(objs[i])[:-1] + ', "time_ms": 0}',
    "missing-key": _missing_key,
    "earlier": _earlier,
    "time-leading-zero": _script_retimed("01"),
    "time-plus": _script_retimed("+1"),
    "time-minus-zero": _script_retimed("-0"),
    "time-float": _script_retimed("1.0"),
    "time-true": _script_retimed("true"),
    "time-arabic-indic": _script_retimed("\u0661\u0662"),
    "time-fullwidth": _script_retimed("\uff11\uff12"),
    "time-5000-digits": _script_retimed("1" * 5000),  # json.loads raises a plain ValueError
    "time-space": _script_retimed(" 5"),
    "unknown-actuator": lambda objs, i, draw: json.dumps({**objs[i], "actuator": "Ghost"}),
    "empty-actuator": lambda objs, i, draw: json.dumps({**objs[i], "actuator": ""}),
    "number-actuator": lambda objs, i, draw: json.dumps({**objs[i], "actuator": 5}),
    "signal-dont-care": lambda objs, i, draw: json.dumps({**objs[i], "signal": "DC"}),
    "crlf": lambda objs, i, draw: json.dumps(objs[i]) + "\r",
    "blank-line-before": _blank_line_before,
}


@st.composite
def mutated_scripts(draw):
    """A script as write_script writes it, from a start time that may be
    negative, with lines of the same actuator and both signals; then up to
    three of its lines mutated, and maybe no newline after the last."""
    changes = st.tuples(
        st.sampled_from(ACTUATORS), st.sampled_from([Signal.HIGH, Signal.LOW]), st.integers(0, 900)
    )
    script, t = [], draw(st.integers(-5000, 1000))
    for actuator, signal, gap in draw(st.lists(changes, min_size=1, max_size=30)):
        t += gap
        script.append(Command(t, actuator, signal))
    lines = script_to_lines(script).splitlines()
    objs = [json.loads(line) for line in lines]
    last = len(lines) - 1
    for i in draw(st.lists(st.integers(0, last).map(lambda k: last - k), max_size=3, unique=True)):
        mutate = _SCRIPT_MUTATIONS[draw(st.sampled_from(sorted(_SCRIPT_MUTATIONS)))]
        lines[i] = mutate(objs, i, draw)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


_EJECT_HIGH = '{"time_ms": 0, "actuator": "Eject Air Pulse", "signal": "High"}\n'


@settings(max_examples=400, deadline=None)
@given(mutated_scripts())
@example(_EJECT_HIGH + _EJECT_HIGH.replace(": 0,", ": 01,"))
@example(_EJECT_HIGH + _EJECT_HIGH.replace("High", "Low"))
@example(_EJECT_HIGH + _EJECT_HIGH.replace("Eject Air Pulse", "Loader Pickup"))
def test_read_script_equals_the_reference_reader(text):
    commands, error = _script_read(lambda text: read_script(io.StringIO(text)), text)
    assert (commands, error) == _script_read(_reference_script, text)
    # a script file is checked in a first pass, with the same errors, then read in a second
    assert (commands, error) == _script_read(_script_file_read, text)
    # every command shares the station's actuator, not just an equal id
    assert all(any(c.actuator is a for a in ACTUATORS) for c in commands or ())
