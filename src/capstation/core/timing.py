"""Time points and relative durations.

The time unit is fixed to integer milliseconds throughout the toolkit.
A rule's duration is an integer offset from an anchor, the cause state:
the effect is due `offset_ms` after the cause.  The BeSpaceD symbolic
form of a duration (anchor + constant) is written only by the JSON
writer.
"""

from __future__ import annotations

from typing import Hashable

from .record import OrderedRecord, Record


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


class TimePoint(OrderedRecord):
    """Milliseconds since epoch or since simulation start."""

    __slots__ = ("t",)

    def __init__(self, t: int):
        self._setters[0](self, t if type(t) is int else _require_int(t, "timepoint"))


class TimeDuration(Record):
    """`offset_ms` after the instant the anchor state began; may be negative."""

    __slots__ = ("anchor", "offset_ms")

    def __init__(self, anchor: Hashable, offset_ms: int):
        self._set(anchor, _require_int(offset_ms, "offset"))


class TimeDurationRange(Record):
    __slots__ = ("minimum", "maximum")

    def __init__(self, minimum: TimeDuration, maximum: TimeDuration):
        if minimum.offset_ms > maximum.offset_ms:
            raise ValueError("duration range minimum exceeds its maximum")
        self._set(minimum, maximum)


def relative_duration(anchor: Hashable, offset_ms: int) -> TimeDuration:
    """Duration of `offset_ms` anchored at the instant `anchor` began."""
    return TimeDuration(anchor, offset_ms)
