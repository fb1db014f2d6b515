"""Annotated directed graphs and temporal rules.

Topologies are sets of directed edges between components; each edge may
carry a relationship annotation.  The two rule kinds are an exact-delay
correlation and a windowed constraint (which prohibits the effect instead
when `inverse` is set).
"""

from __future__ import annotations

from .bemap import ComponentId
from .record import Record
from .timing import TimeDuration, TimeDurationRange


class TemporalCorrelation(Record):
    """Cause and effect state changes coincide with an exact delay."""

    __slots__ = ("cause", "duration", "effect")

    def __init__(self, cause, duration: TimeDuration, effect):
        self._set(cause, duration, effect)


class TemporalConstraint(Record):
    """Effect occurs (or, if inverse, must not occur) within a delay window."""

    __slots__ = ("cause", "range", "effect", "inverse")

    def __init__(self, cause, range: TimeDurationRange, effect, inverse: bool = False):
        self._set(cause, range, effect, inverse)


class EdgeAnn(Record):
    """Directed edge with an optional relationship annotation.

    A plain edge is an annotated edge whose annotation is absent.
    """

    __slots__ = ("source", "target", "annotation")

    def __init__(self, source: ComponentId, target: ComponentId, annotation=None):
        if not isinstance(source, ComponentId) or not isinstance(target, ComponentId):
            raise TypeError("edge endpoints must be component ids")
        self._set(source, target, annotation)


class AnnotatedGraph(Record):
    """Ordered edge list; duplicate endpoint pairs need distinct annotations."""

    __slots__ = ("edges",)

    def __init__(self, edges: tuple = ()):
        edges = tuple(edges)
        seen = set()
        for e in edges:
            key = (e.source, e.target, e.annotation)
            if key in seen:
                raise ValueError(f"duplicate edge: {e.source} -> {e.target}")
            seen.add(key)
        self._set(edges)

    def nodes(self) -> frozenset:
        out = set()
        for e in self.edges:
            out.add(e.source)
            out.add(e.target)
        return frozenset(out)
