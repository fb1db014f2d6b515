from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstation.core.timing import (
    Addition,
    Constant,
    TimeDuration,
    TimeDurationRange,
    TimePoint,
    Variable,
    evaluate,
    relative_duration,
    variables,
)
from capstation.devices import ACTIVE, OBSTRUCTED
from capstation.errors import UnboundVariableError


def test_addition_of_variable_and_constant():
    expr = Addition((Variable(ACTIVE), Constant(200)))
    assert evaluate(expr, {ACTIVE: 1000}) == 1200


def test_constant_evaluates_to_itself():
    assert evaluate(Constant(0), {}) == 0


def test_negative_offsets_evaluate():
    expr = Addition((Variable(ACTIVE), Constant(-500)))
    assert evaluate(expr, {ACTIVE: 1000}) == 500


def test_unbound_variable_raises():
    with pytest.raises(UnboundVariableError) as err:
        evaluate(Variable(ACTIVE), {})
    assert err.value.ref == ACTIVE


def test_addition_needs_two_operands():
    with pytest.raises(ValueError):
        Addition((Constant(1),))


@pytest.mark.parametrize("anchor_time", [0, 5, 1000, -300])
def test_duration_value_is_translation_invariant(anchor_time):
    d = relative_duration(OBSTRUCTED, 3)
    assert d.value({OBSTRUCTED: anchor_time}) == 3


def test_identical_expressions_have_zero_duration():
    c = Constant(7)
    assert TimeDuration(start=c, scalar=c).value({}) == 0


def test_documented_window_offsets():
    assert relative_duration(ACTIVE, 300).value({ACTIVE: 42}) == 300
    assert relative_duration(ACTIVE, -500).value({ACTIVE: 42}) == -500


def test_variables_collects_references():
    d = relative_duration(ACTIVE, 10)
    assert d.variables() == {ACTIVE}
    assert variables(Constant(3)) == frozenset()


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


scalars = st.deferred(
    lambda: st.one_of(
        st.builds(Constant, st.integers(-10_000, 10_000)),
        st.sampled_from([Variable(ACTIVE), Variable(OBSTRUCTED)]),
        st.builds(Addition, st.lists(scalars, min_size=2, max_size=4).map(tuple)),
    )
)


def _naive_eval(expr, binding):
    # independent recursion used as an oracle for the sum semantics
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        return binding[expr.ref]
    total = 0
    for op in expr.operands:
        total += _naive_eval(op, binding)
    return total


@given(scalars, st.integers(-5000, 5000), st.integers(-5000, 5000))
def test_evaluate_matches_naive_recursion(expr, a, b):
    binding = {ACTIVE: a, OBSTRUCTED: b}
    assert evaluate(expr, binding) == _naive_eval(expr, binding)


@given(st.integers(-2000, 2000), st.integers(-5000, 5000), st.integers(-5000, 5000))
def test_shared_variable_duration_ignores_binding_shift(offset, base, shift):
    d = relative_duration(ACTIVE, offset)
    assert d.value({ACTIVE: base}) == d.value({ACTIVE: base + shift}) == offset
