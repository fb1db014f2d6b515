"""Every record keeps a frozen dataclass's contract: equality with records
of its own class only, the hash of the tuple of its fields, repr, order
where it had one, its checks and defaults, copy and pickle, and no
assignment.  The repr texts are those the frozen dataclasses gave."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from capstation.core.bemap import BeMapKV, ComponentId, ComponentValue
from capstation.core.geometry import Box3D
from capstation.core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from capstation.core.timing import TimeDuration, TimeDurationRange, TimePoint
from capstation.devices import ACTIVE, ACTIVE_HIGH, OBSTRUCTED, PASSIVE, PASSIVE_LOW, DeviceKind
from capstation.devices import DeviceState, DropEvents, LatencyOverride, PhysicalEvent, Signal
from capstation.devices import SignalMapping, SpatialVariationSet, StuckSensor, abstract_state
from capstation.errors import AbstractStateInEventError, DuplicateKeyError
from capstation.monitor import CompiledRule, MonitorConfig, Outcome, RuleKind, Semantics
from capstation.monitor import SequenceUnit, Verdict
from capstation.simulator import LatencyTable
from capstation.spatial import SpatialPair, SpatialReport
from capstation.station import StationCatalog, TopologyName

SENSOR = ComponentId("Stack Empty")
LOW = DeviceState("Obstructed", Signal.LOW)
EVENT = PhysicalEvent(SENSOR, DeviceKind.SENSOR, TimePoint(5), LOW)
PICKUP = ComponentId("Loader Pickup")
RULE = CompiledRule(0, "T", SENSOR, PICKUP, ACTIVE, PASSIVE, -5, 10, False, RuleKind.CONSTRAINT)
WINDOW = TimeDurationRange(TimeDuration(ACTIVE, -5), TimeDuration(ACTIVE, 10))
CORRELATION = TemporalCorrelation(ACTIVE, TimeDuration(ACTIVE, 3), PASSIVE)
EDGE = EdgeAnn(SENSOR, PICKUP, CORRELATION)
VALUE = ComponentValue(7)
BEMAP = BeMapKV(((SENSOR, VALUE),))
PAIR = SpatialPair(SENSOR, PICKUP, True, 8)
CATALOG = StationCatalog(
    {SENSOR: DeviceKind.SENSOR}, {SENSOR: BEMAP}, {TopologyName.AVOIDANCE: AnnotatedGraph((EDGE,))},
    frozenset({SENSOR}), frozenset(),
)


FIELDS = {
    TimePoint: ("t",),
    ComponentId: ("id",),
    DeviceState: ("name", "signal"),
    PhysicalEvent: ("device", "kind", "timepoint", "state"),
    Verdict: ("rule", "cause_event", "outcome", "witness", "decided_at", "window"),
    MonitorConfig: ("correlation_tolerance_ms", "sequence_unit", "semantics"),
    CompiledRule: (
        "index", "topology", "source", "target", "cause", "effect", "min_ms", "max_ms", "inverse",
        "kind",
    ),
    SpatialPair: ("device_a", "device_b", "overlap", "shared_volume"),
    SpatialReport: ("pairs",),
    TimeDuration: ("anchor", "offset_ms"),
    TimeDurationRange: ("minimum", "maximum"),
    TemporalCorrelation: ("cause", "duration", "effect"),
    TemporalConstraint: ("cause", "range", "effect", "inverse"),
    EdgeAnn: ("source", "target", "annotation"),
    AnnotatedGraph: ("edges",),
    ComponentValue: ("value",),
    BeMapKV: ("entries",),
    Box3D: ("x1", "y1", "z1", "x2", "y2", "z2"),
    SignalMapping: ("high", "low"),
    SpatialVariationSet: ("name", "positions"),
    LatencyOverride: ("device", "latency_ms", "transition"),
    StuckSensor: ("device", "state"),
    DropEvents: ("device",),
    LatencyTable: ("durations", "jitter_ms"),
    StationCatalog: (
        "devices", "descriptions", "topologies", "synthetic_edges", "synthetic_entries"
    ),
}


def _args(record) -> tuple:
    """The values of the record's fields, in order."""
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


# pieces of the repr texts below
_SENSOR, _PICKUP = "ComponentId(id='Stack Empty')", "ComponentId(id='Loader Pickup')"
_ACTIVE = "DeviceState(name='Active', signal=<Signal.DONT_CARE: \"Don't Care\">)"
_PASSIVE = "DeviceState(name='Passive', signal=<Signal.DONT_CARE: \"Don't Care\">)"
_RULE = (
    f"CompiledRule(index=0, topology='T', source={_SENSOR}, target={_PICKUP}, cause={_ACTIVE}, "
    f"effect={_PASSIVE}, min_ms=-5, max_ms=10, inverse=False, "
    "kind=<RuleKind.CONSTRAINT: 'constraint'>)"
)
_EVENT = (
    f"PhysicalEvent(device={_SENSOR}, kind=<DeviceKind.SENSOR: 'Sensor'>, "
    "timepoint=TimePoint(t=5), state=DeviceState(name='Obstructed', signal=<Signal.LOW: 'Low'>))"
)
_WINDOW = (
    f"TimeDurationRange(minimum=TimeDuration(anchor={_ACTIVE}, offset_ms=-5), "
    f"maximum=TimeDuration(anchor={_ACTIVE}, offset_ms=10))"
)
_CORRELATION = (
    f"TemporalCorrelation(cause={_ACTIVE}, duration=TimeDuration(anchor={_ACTIVE}, offset_ms=3), "
    f"effect={_PASSIVE})"
)
_EDGE = f"EdgeAnn(source={_SENSOR}, target={_PICKUP}, annotation={_CORRELATION})"
_BEMAP = f"BeMapKV(entries=(({_SENSOR}, ComponentValue(value=7)),))"
_PAIR = f"SpatialPair(device_a={_SENSOR}, device_b={_PICKUP}, overlap=True, shared_volume=8)"

RECORDS = {
    "TimePoint": (TimePoint(5), "TimePoint(t=5)"),
    "ComponentId": (SENSOR, _SENSOR),
    "DeviceState": (LOW, "DeviceState(name='Obstructed', signal=<Signal.LOW: 'Low'>)"),
    "PhysicalEvent": (EVENT, _EVENT),
    "Verdict": (
        Verdict(RULE, EVENT, Outcome.SATISFIED, None, 7, (0, 15)),
        f"Verdict(rule={_RULE}, cause_event={_EVENT}, outcome=<Outcome.SATISFIED: 'Satisfied'>, "
        "witness=None, decided_at=7, window=(0, 15))",
    ),
    "MonitorConfig": (
        MonitorConfig(5, SequenceUnit.MILLISECONDS, Semantics.STATE_HOLDS),
        "MonitorConfig(correlation_tolerance_ms=5, sequence_unit=<SequenceUnit.MILLISECONDS: "
        "'milliseconds'>, semantics=<Semantics.STATE_HOLDS: 'state'>)",
    ),
    "CompiledRule": (RULE, _RULE),
    "SpatialPair": (PAIR, _PAIR),
    "SpatialReport": (SpatialReport((PAIR,)), f"SpatialReport(pairs=({_PAIR},))"),
    "TimeDuration": (
        TimeDuration(ACTIVE, -5), f"TimeDuration(anchor={_ACTIVE}, offset_ms=-5)"
    ),
    "TimeDurationRange": (WINDOW, _WINDOW),
    "TemporalCorrelation": (CORRELATION, _CORRELATION),
    "TemporalConstraint": (
        TemporalConstraint(ACTIVE, WINDOW, PASSIVE, True),
        f"TemporalConstraint(cause={_ACTIVE}, range={_WINDOW}, effect={_PASSIVE}, inverse=True)",
    ),
    "EdgeAnn": (EDGE, _EDGE),
    "AnnotatedGraph": (AnnotatedGraph((EDGE,)), f"AnnotatedGraph(edges=({_EDGE},))"),
    "ComponentValue": (VALUE, "ComponentValue(value=7)"),
    "BeMapKV": (BEMAP, _BEMAP),
    "Box3D": (Box3D(3, 1, 2, 0, 4, 5), "Box3D(x1=0, y1=1, z1=2, x2=3, y2=4, z2=5)"),
    "SignalMapping": (
        SignalMapping(ACTIVE_HIGH, PASSIVE_LOW),
        "SignalMapping(high=DeviceState(name='Active', signal=<Signal.HIGH: 'High'>), "
        "low=DeviceState(name='Passive', signal=<Signal.LOW: 'Low'>))",
    ),
    "SpatialVariationSet": (
        SpatialVariationSet("Arm", ["Left", "Right"]),
        "SpatialVariationSet(name='Arm', positions=('Left', 'Right'))",
    ),
    "LatencyOverride": (
        LatencyOverride(PICKUP, 350, "activate"),
        f"LatencyOverride(device={_PICKUP}, latency_ms=350, transition='activate')",
    ),
    "StuckSensor": (
        StuckSensor(SENSOR, OBSTRUCTED),
        f"StuckSensor(device={_SENSOR}, state=DeviceState(name='Obstructed', "
        "signal=<Signal.DONT_CARE: \"Don't Care\">))",
    ),
    "DropEvents": (DropEvents(SENSOR), f"DropEvents(device={_SENSOR})"),
    "LatencyTable": (
        LatencyTable({(PICKUP, "activate"): 800}, 30),
        f"LatencyTable(durations={{({_PICKUP}, 'activate'): 800}}, jitter_ms=30)",
    ),
    "StationCatalog": (
        CATALOG,
        f"StationCatalog(devices={{{_SENSOR}: <DeviceKind.SENSOR: 'Sensor'>}}, "
        f"descriptions={{{_SENSOR}: {_BEMAP}}}, "
        f"topologies={{<TopologyName.AVOIDANCE: 'Avoidance'>: AnnotatedGraph(edges=({_EDGE},))}}, "
        f"synthetic_edges=frozenset({{{_SENSOR}}}), synthetic_entries=frozenset())",
    ),
}
_ids = list(RECORDS)
_records = pytest.mark.parametrize("record", [r for r, _ in RECORDS.values()], ids=_ids)


@_records
def test_equal_only_to_records_of_its_own_class(record):
    cls = type(record)
    twin = cls(*_args(record))
    assert twin == record and not twin != record
    assert cls(**dict(zip(FIELDS[cls], _args(record)))) == record  # the fields name the parameters
    other = type("Other", (cls,), {"__slots__": ()})(*_args(record))  # same fields, other class
    assert other != record and not other == record
    assert record != _args(record) and record != object()


@pytest.mark.parametrize("record, text", RECORDS.values(), ids=_ids)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a field holds a dict: hash fails, as the dataclass's did
        return TypeError


@_records
def test_hash_is_the_hash_of_the_field_tuple(record):
    assert _hash(record) == _hash(_args(record))
    if _hash(record) is not TypeError:
        assert len({record, type(record)(*_args(record))}) == 1


@_records
def test_fields_cannot_be_assigned_or_deleted(record):
    before = _args(record)
    for name in FIELDS[type(record)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert _args(record) == before


@_records
def test_copy_and_pickle_rebuild_an_equal_record(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


ORDERED = {TimePoint, ComponentId, Box3D}


@pytest.mark.parametrize("low, high", [
    (TimePoint(-1), TimePoint(2)),
    (ComponentId("Loader Pickup"), ComponentId("Stack Empty")),
    (Box3D(0, 0, 0, 1, 1, 1), Box3D(0, 0, 0, 1, 1, 2)),
], ids=["TimePoint", "ComponentId", "Box3D"])
def test_time_points_and_component_ids_order_as_their_field(low, high):
    assert low < high and low <= high and high > low and high >= low
    assert not high < low and low <= low and low >= low
    assert sorted([high, low]) == [low, high]
    with pytest.raises(TypeError):
        low < _args(high)  # noqa: B015 - a tuple of the same values does not order with it


_unordered = [(n, r) for n, (r, _) in RECORDS.items() if type(r) not in ORDERED]


@pytest.mark.parametrize("record", [r for _, r in _unordered], ids=[n for n, _ in _unordered])
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
    inverse = CompiledRule(0, "T", SENSOR, PICKUP, ACTIVE, PASSIVE, -5, 10, True, RuleKind.CONSTRAINT)
    verdict = Verdict(inverse, EVENT, Outcome.VIOLATED_FORBIDDEN, EVENT, 7, (0, 15))
    assert verdict.outcome is Outcome.VIOLATED_FORBIDDEN


# each check a record's __init__ makes (a frozen dataclass's __post_init__ made it)
CHECKS = {
    "TimeDuration-float": (lambda: TimeDuration(ACTIVE, 1.5), TypeError),
    "TimeDuration-bool": (lambda: TimeDuration(ACTIVE, True), TypeError),
    "TimeDurationRange-reversed": (
        lambda: TimeDurationRange(TimeDuration(ACTIVE, 10), TimeDuration(ACTIVE, -5)), ValueError
    ),
    "EdgeAnn-source": (lambda: EdgeAnn("Stack Empty", PICKUP), TypeError),
    "EdgeAnn-target": (lambda: EdgeAnn(SENSOR, "Loader Pickup"), TypeError),
    "AnnotatedGraph-duplicate": (
        lambda: AnnotatedGraph([EDGE, EdgeAnn(SENSOR, PICKUP, CORRELATION)]), ValueError
    ),
    "ComponentValue-bool": (lambda: ComponentValue(True), TypeError),
    "ComponentValue-float": (lambda: ComponentValue(1.5), TypeError),
    "BeMapKV-duplicate": (
        lambda: BeMapKV([(SENSOR, VALUE), (SENSOR, ComponentValue(8))]), DuplicateKeyError
    ),
    "Box3D-float": (lambda: Box3D(0, 0, 0, 1, 1, 1.0), TypeError),
    "Box3D-bool": (lambda: Box3D(True, 0, 0, 1, 1, 1), TypeError),
    "SignalMapping-levels": (lambda: SignalMapping(PASSIVE_LOW, ACTIVE_HIGH), ValueError),
    "SignalMapping-names": (
        lambda: SignalMapping(ACTIVE_HIGH, DeviceState("Active", Signal.LOW)), ValueError
    ),
    "SpatialVariationSet-one": (lambda: SpatialVariationSet("Arm", ["Left"]), ValueError),
    "SpatialVariationSet-repeat": (
        lambda: SpatialVariationSet("Arm", ["Left", "Left"]), ValueError
    ),
    "MonitorConfig-negative": (lambda: MonitorConfig(-1), ValueError),
}


@pytest.mark.parametrize("build, error", CHECKS.values(), ids=list(CHECKS))
def test_a_record_checks_its_fields(build, error):
    with pytest.raises(error):
        build()


def test_records_keep_their_defaults():
    assert MonitorConfig() == MonitorConfig(0, SequenceUnit.SECONDS, Semantics.EVENT_OCCURRENCE)
    assert BeMapKV().entries == () and AnnotatedGraph().edges == ()
    assert TemporalConstraint(ACTIVE, WINDOW, PASSIVE).inverse is False
    assert EdgeAnn(SENSOR, PICKUP).annotation is None
    assert LatencyOverride(PICKUP, 350).transition is None
    assert LatencyTable({}).jitter_ms == 0


def test_records_store_tuples_and_min_corners():
    assert type(AnnotatedGraph([EDGE]).edges) is tuple
    assert type(BeMapKV([(SENSOR, VALUE)]).entries) is tuple
    assert type(SpatialVariationSet("Arm", ["Left", "Right"]).positions) is tuple
    assert _args(Box3D(3, 4, 5, 0, 1, 2)) == (0, 1, 2, 3, 4, 5)
