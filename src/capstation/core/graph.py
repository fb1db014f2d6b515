"""Annotated directed graphs and temporal rules.

Topologies are sets of directed edges between components; each edge may
carry a relationship annotation.  The two rule kinds are an exact-delay
correlation and a windowed constraint (which prohibits the effect instead
when `inverse` is set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bemap import ComponentId
from .timing import TimeDuration, TimeDurationRange


@dataclass(frozen=True)
class TemporalCorrelation:
    """Cause and effect state changes coincide with an exact delay."""

    cause: object
    duration: TimeDuration
    effect: object


@dataclass(frozen=True)
class TemporalConstraint:
    """Effect occurs (or, if inverse, must not occur) within a delay window."""

    cause: object
    range: TimeDurationRange
    effect: object
    inverse: bool = False


@dataclass(frozen=True)
class EdgeAnn:
    """Directed edge with an optional relationship annotation.

    A plain edge is an annotated edge whose annotation is absent.
    """

    source: ComponentId
    target: ComponentId
    annotation: Optional[object] = None

    def __post_init__(self):
        if not isinstance(self.source, ComponentId) or not isinstance(self.target, ComponentId):
            raise TypeError("edge endpoints must be component ids")


@dataclass(frozen=True)
class AnnotatedGraph:
    """Ordered edge list; duplicate endpoint pairs need distinct annotations."""

    edges: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for e in self.edges:
            key = (e.source, e.target, e.annotation)
            if key in seen:
                raise ValueError(f"duplicate edge: {e.source} -> {e.target}")
            seen.add(key)

    def nodes(self) -> frozenset:
        out = set()
        for e in self.edges:
            out.add(e.source)
            out.add(e.target)
        return frozenset(out)
