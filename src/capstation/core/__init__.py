"""Domain-agnostic time, space, map and graph constructs."""

from .bemap import BeMapKV, ComponentId, ComponentValue, ValueKind, build_bemap
from .geometry import Box3D, intersection_volume
from .graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .timing import TimeDuration, TimeDurationRange, TimePoint, relative_duration

__all__ = [
    "AnnotatedGraph", "BeMapKV", "Box3D", "ComponentId", "ComponentValue", "EdgeAnn",
    "TemporalConstraint", "TemporalCorrelation", "TimeDuration", "TimeDurationRange", "TimePoint",
    "ValueKind", "build_bemap", "intersection_volume", "relative_duration",
]
