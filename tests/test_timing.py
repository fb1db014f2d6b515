from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstation.core.timing import TimeDurationRange, TimePoint, relative_duration
from capstation.devices import ACTIVE, OBSTRUCTED
from capstation.wire import duration_to_obj


def _written_value(obj, binding):
    """Value of a written BeSpaceD scalar, each state variable bound by name."""
    if obj["type"] == "SS Constant":
        return obj["expression"]
    if obj["type"] == "SS Variable":
        return binding[obj["expression"]["type"]]
    assert obj["type"] == "SS Addition"
    return sum(_written_value(op, binding) for op in obj["expression"])


def _written_variables(obj):
    if obj["type"] == "SS Variable":
        return [obj["expression"]]
    if obj["type"] == "SS Addition":
        return [v for op in obj["expression"] for v in _written_variables(op)]
    return []


def _duration_value(duration, anchor_time):
    """scalar - start of the written duration, its anchor bound to `anchor_time`."""
    obj = duration_to_obj(duration)
    binding = {duration.anchor.name: anchor_time}
    return _written_value(obj["scalar"], binding) - _written_value(obj["start"], binding)


def test_addition_of_variable_and_constant():
    scalar = duration_to_obj(relative_duration(ACTIVE, 200))["scalar"]
    assert _written_value(scalar, {"Active": 1000}) == 1200


def test_addition_needs_two_operands():
    # the written addition is always the anchor's variable plus the offset
    scalar = duration_to_obj(relative_duration(ACTIVE, 200))["scalar"]
    assert [op["type"] for op in scalar["expression"]] == ["SS Variable", "SS Constant"]


def test_negative_offsets_evaluate():
    scalar = duration_to_obj(relative_duration(ACTIVE, -500))["scalar"]
    assert _written_value(scalar, {"Active": 1000}) == 500


@pytest.mark.parametrize("anchor_time", [0, 5, 1000, -300])
def test_duration_value_is_translation_invariant(anchor_time):
    assert _duration_value(relative_duration(OBSTRUCTED, 3), anchor_time) == 3


def test_identical_expressions_have_zero_duration():
    d = relative_duration(ACTIVE, 0)
    assert d.offset_ms == 0
    assert _duration_value(d, 7) == 0


def test_documented_window_offsets():
    assert relative_duration(ACTIVE, 300).offset_ms == 300
    assert relative_duration(ACTIVE, -500).offset_ms == -500


def test_offsets_are_integers():
    for bad in (1.5, True, "3"):
        with pytest.raises(TypeError):
            relative_duration(ACTIVE, bad)


def test_variables_collects_references():
    # start and scalar reference the one anchor, so the value needs no binding
    obj = duration_to_obj(relative_duration(ACTIVE, 10))
    assert _written_variables(obj["start"]) == _written_variables(obj["scalar"]) == [
        {"type": "Active"}
    ]


def test_duration_range_orders_min_max():
    lo = relative_duration(ACTIVE, 200)
    hi = relative_duration(ACTIVE, 300)
    TimeDurationRange(lo, hi)
    with pytest.raises(ValueError):
        TimeDurationRange(hi, lo)


def test_timepoint_ordering_and_integer_type():
    assert TimePoint(1) < TimePoint(2)
    with pytest.raises(TypeError):
        TimePoint(1.5)


@given(st.integers(-2000, 2000), st.integers(-5000, 5000), st.integers(-5000, 5000))
def test_shared_variable_duration_ignores_binding_shift(offset, base, shift):
    d = relative_duration(ACTIVE, offset)
    assert _duration_value(d, base) == _duration_value(d, base + shift) == offset
