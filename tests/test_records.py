"""The hot records keep a frozen dataclass's contract: equality with records
of their own class only, the hash of the tuple of their fields, repr,
order where they had one, their checks, and no assignment."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from capstation.core.bemap import ComponentId
from capstation.core.timing import TimePoint
from capstation.devices import ACTIVE, PASSIVE, DeviceKind, DeviceState, PhysicalEvent, Signal
from capstation.devices import abstract_state
from capstation.errors import AbstractStateInEventError
from capstation.monitor import CompiledRule, Outcome, RuleKind, Verdict

SENSOR = ComponentId("Stack Empty")
LOW = DeviceState("Obstructed", Signal.LOW)
EVENT = PhysicalEvent(SENSOR, DeviceKind.SENSOR, TimePoint(5), LOW)
PICKUP = ComponentId("Loader Pickup")
RULE = CompiledRule(0, "T", SENSOR, PICKUP, ACTIVE, PASSIVE, -5, 10, False, RuleKind.CONSTRAINT)


FIELDS = {
    TimePoint: ("t",),
    ComponentId: ("id",),
    DeviceState: ("name", "signal"),
    PhysicalEvent: ("device", "kind", "timepoint", "state"),
    Verdict: ("rule", "cause_event", "outcome", "witness", "decided_at", "window"),
}


def _args(record) -> tuple:
    """The values of the record's fields, in order."""
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


RECORDS = {
    "TimePoint": (TimePoint(5), "TimePoint(t=5)"),
    "ComponentId": (SENSOR, "ComponentId(id='Stack Empty')"),
    "DeviceState": (LOW, "DeviceState(name='Obstructed', signal=<Signal.LOW: 'Low'>)"),
    "PhysicalEvent": (
        EVENT,
        "PhysicalEvent(device=ComponentId(id='Stack Empty'), kind=<DeviceKind.SENSOR: 'Sensor'>, "
        "timepoint=TimePoint(t=5), "
        "state=DeviceState(name='Obstructed', signal=<Signal.LOW: 'Low'>))",
    ),
    "Verdict": (
        Verdict(RULE, EVENT, Outcome.SATISFIED, None, 7, (0, 15)),
        "Verdict(rule=CompiledRule(index=0, topology='T', source=ComponentId(id='Stack Empty'), "
        "target=ComponentId(id='Loader Pickup'), cause=DeviceState(name='Active', "
        "signal=<Signal.DONT_CARE: \"Don't Care\">), effect=DeviceState(name='Passive', "
        "signal=<Signal.DONT_CARE: \"Don't Care\">), min_ms=-5, max_ms=10, inverse=False, "
        "kind=<RuleKind.CONSTRAINT: 'constraint'>), cause_event=PhysicalEvent(device="
        "ComponentId(id='Stack Empty'), kind=<DeviceKind.SENSOR: 'Sensor'>, timepoint="
        "TimePoint(t=5), state=DeviceState(name='Obstructed', signal=<Signal.LOW: 'Low'>)), "
        "outcome=<Outcome.SATISFIED: 'Satisfied'>, witness=None, decided_at=7, window=(0, 15))",
    ),
}
_ids = list(RECORDS)
_records = pytest.mark.parametrize("record", [r for r, _ in RECORDS.values()], ids=_ids)


@_records
def test_equal_only_to_records_of_its_own_class(record):
    cls = type(record)
    twin = cls(*_args(record))
    assert twin == record and not twin != record
    other = type("Other", (cls,), {"__slots__": ()})(*_args(record))  # same fields, other class
    assert other != record and not other == record
    assert record != _args(record) and record != object()


@pytest.mark.parametrize("record, text", RECORDS.values(), ids=_ids)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@_records
def test_hash_is_the_hash_of_the_field_tuple(record):
    assert hash(record) == hash(_args(record))
    assert len({record, type(record)(*_args(record))}) == 1


@_records
def test_fields_cannot_be_assigned_or_deleted(record):
    before = _args(record)
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _args(record) == before


@_records
def test_copy_and_pickle_rebuild_an_equal_record(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("low, high", [
    (TimePoint(-1), TimePoint(2)),
    (ComponentId("Loader Pickup"), ComponentId("Stack Empty")),
], ids=["TimePoint", "ComponentId"])
def test_time_points_and_component_ids_order_as_their_field(low, high):
    assert low < high and low <= high and high > low and high >= low
    assert not high < low and low <= low and low >= low
    assert sorted([high, low]) == [low, high]
    with pytest.raises(TypeError):
        low < _args(high)  # noqa: B015 - a tuple of the same values does not order with it


@pytest.mark.parametrize("record", [LOW, EVENT, RECORDS["Verdict"][0]], ids=_ids[2:])
def test_the_other_records_do_not_order(record):
    with pytest.raises(TypeError):
        record < record  # noqa: B015


@pytest.mark.parametrize("t", [True, False, 1.0, "1", None], ids=repr)
def test_time_point_needs_an_int_that_is_not_a_bool(t):
    with pytest.raises(TypeError):
        TimePoint(t)


@pytest.mark.parametrize("name", ["", 5, None], ids=repr)
def test_component_id_needs_a_non_empty_string(name):
    with pytest.raises(ValueError):
        ComponentId(name)


def test_device_state_needs_a_name():
    with pytest.raises(ValueError):
        DeviceState("", Signal.HIGH)


def test_event_rejects_a_dont_care_state():
    with pytest.raises(AbstractStateInEventError):
        PhysicalEvent(SENSOR, DeviceKind.SENSOR, TimePoint(5), abstract_state("Obstructed"))


def test_forbidden_outcome_needs_an_inverse_rule():
    with pytest.raises(ValueError):
        Verdict(RULE, EVENT, Outcome.VIOLATED_FORBIDDEN, EVENT, 7, (0, 15))
    inverse = dataclasses.replace(RULE, inverse=True)
    verdict = Verdict(inverse, EVENT, Outcome.VIOLATED_FORBIDDEN, EVENT, 7, (0, 15))
    assert verdict.outcome is Outcome.VIOLATED_FORBIDDEN
