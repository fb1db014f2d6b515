from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.timing import TimePoint
from capstation.devices import (
    ACTIVE,
    ACTIVE_HIGH,
    DeviceKind,
    DeviceState,
    HIGH_SOLENOID_MAPPING,
    OBSTRUCTED,
    OBSTRUCTED_LOW,
    PASSIVE_LOW,
    PhysicalEvent,
    Signal,
    SignalMapping,
    SpatialVariationSet,
    abstract_state,
    state_matches,
)
from capstation.errors import AbstractStateInEventError, DontCareInputError

SENSOR = ComponentId("Stack Empty")


def test_high_solenoid_mapping_meanings():
    assert HIGH_SOLENOID_MAPPING(Signal.HIGH) == ACTIVE_HIGH
    assert HIGH_SOLENOID_MAPPING(Signal.LOW) == PASSIVE_LOW


def test_mapping_rejects_dont_care_input():
    with pytest.raises(DontCareInputError):
        HIGH_SOLENOID_MAPPING(Signal.DONT_CARE)


def test_mapping_states_must_carry_their_level():
    with pytest.raises(ValueError):
        SignalMapping(high=PASSIVE_LOW, low=PASSIVE_LOW)
    with pytest.raises(ValueError):
        SignalMapping(high=ACTIVE_HIGH, low=DeviceState("Active", Signal.LOW))


def test_state_named_inverse_lookup():
    assert HIGH_SOLENOID_MAPPING.state_named("Active") == ACTIVE_HIGH
    with pytest.raises(ValueError):
        HIGH_SOLENOID_MAPPING.state_named("Obstructed")


def test_abstract_spec_matches_concrete_state():
    assert state_matches(OBSTRUCTED, OBSTRUCTED_LOW) is True


def test_signal_mismatch_fails():
    assert state_matches(DeviceState("Obstructed", Signal.HIGH), OBSTRUCTED_LOW) is False


def test_name_mismatch_fails():
    assert state_matches(ACTIVE, PASSIVE_LOW) is False


@pytest.mark.parametrize("sig", [Signal.HIGH, Signal.LOW])
def test_dont_care_absorbs_both_levels(sig):
    assert state_matches(abstract_state("Obstructed"), DeviceState("Obstructed", sig))


@given(st.sampled_from(["Active", "Passive", "Obstructed"]), st.sampled_from([Signal.HIGH, Signal.LOW]))
def test_concrete_states_match_themselves(name, sig):
    s = DeviceState(name, sig)
    assert state_matches(s, s)


def test_make_event_with_concrete_state():
    e = PhysicalEvent(SENSOR, DeviceKind.SENSOR, TimePoint(10), OBSTRUCTED_LOW)
    assert (e.device, e.timepoint, e.state) == (SENSOR, TimePoint(10), OBSTRUCTED_LOW)


def test_make_event_rejects_abstract_state():
    with pytest.raises(AbstractStateInEventError):
        PhysicalEvent(SENSOR, DeviceKind.SENSOR, TimePoint(0), OBSTRUCTED)


def test_actuator_events_construct_the_same_way():
    e = PhysicalEvent(ComponentId("Stack Ejector Extend"), DeviceKind.ACTUATOR, TimePoint(5), ACTIVE_HIGH)
    assert e.kind is DeviceKind.ACTUATOR


def test_variation_sets_need_two_distinct_positions():
    with pytest.raises(ValueError):
        SpatialVariationSet("x", ("only",))
    with pytest.raises(ValueError):
        SpatialVariationSet("x", ("a", "a"))
    assert SpatialVariationSet("x", ["a", "b"]).positions == ("a", "b")


@given(
    st.sampled_from(["Active", "Obstructed", "Gripped"]),
    st.sampled_from(["Passive", "Unobstructed", "Released"]),
)
def test_signal_mappings_are_total_on_the_two_levels(high_name, low_name):
    mapping = SignalMapping(
        high=DeviceState(high_name, Signal.HIGH), low=DeviceState(low_name, Signal.LOW)
    )
    assert mapping(Signal.HIGH).name == high_name
    assert mapping(Signal.LOW).name == low_name
    assert mapping(Signal.HIGH) == mapping(Signal.HIGH)
