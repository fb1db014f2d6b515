"""Time points, symbolic scalars and relative durations.

The time unit is fixed to integer milliseconds throughout the toolkit.
Durations are expressed symbolically as a pair of scalars (start, scalar);
their value under a binding is eval(scalar) - eval(start).  In rule
annotations both sides reference the same variable (the cause state's
timestamp), which makes the duration independent of the actual binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Union

from ..errors import UnboundVariableError


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, order=True)
class TimePoint:
    """Milliseconds since epoch or since simulation start."""

    t: int

    def __post_init__(self):
        _require_int(self.t, "timepoint")


@dataclass(frozen=True)
class Constant:
    value: int

    def __post_init__(self):
        _require_int(self.value, "constant")


@dataclass(frozen=True)
class Variable:
    """A symbolic reference, bound to an integer at evaluation time.

    In rule annotations the reference is a state specification; the monitor
    binds it to the cause event's timestamp.
    """

    ref: Hashable


@dataclass(frozen=True)
class Addition:
    operands: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ValueError("addition needs at least two operands")


SymbolicScalar = Union[Constant, Variable, Addition]


def evaluate(expr: SymbolicScalar, binding: Mapping[Hashable, int]) -> int:
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        if expr.ref not in binding:
            raise UnboundVariableError(expr.ref)
        return binding[expr.ref]
    if isinstance(expr, Addition):
        return sum(evaluate(op, binding) for op in expr.operands)
    raise TypeError(f"not a symbolic scalar: {expr!r}")


def variables(expr: SymbolicScalar) -> frozenset:
    if isinstance(expr, Constant):
        return frozenset()
    if isinstance(expr, Variable):
        return frozenset({expr.ref})
    if isinstance(expr, Addition):
        out = frozenset()
        for op in expr.operands:
            out |= variables(op)
        return out
    raise TypeError(f"not a symbolic scalar: {expr!r}")


@dataclass(frozen=True)
class TimeDuration:
    """Relative span from `start` to `scalar`; may be negative."""

    start: SymbolicScalar
    scalar: SymbolicScalar

    def value(self, binding: Mapping[Hashable, int]) -> int:
        return evaluate(self.scalar, binding) - evaluate(self.start, binding)

    def variables(self) -> frozenset:
        return variables(self.start) | variables(self.scalar)

    def value_at_zero(self) -> int:
        """Duration with every variable bound to zero.

        For the canonical annotation shape (start and scalar share one
        variable) this equals the duration under any binding.
        """
        return self.value({ref: 0 for ref in self.variables()})


@dataclass(frozen=True)
class TimeDurationRange:
    minimum: TimeDuration
    maximum: TimeDuration

    def __post_init__(self):
        if self.minimum.value_at_zero() > self.maximum.value_at_zero():
            raise ValueError("duration range minimum exceeds its maximum")


def relative_duration(anchor: Hashable, offset_ms: int) -> TimeDuration:
    """Duration of `offset_ms` anchored at a variable: scalar = anchor + offset."""
    _require_int(offset_ms, "offset")
    v = Variable(anchor)
    return TimeDuration(start=v, scalar=Addition((v, Constant(offset_ms))))
