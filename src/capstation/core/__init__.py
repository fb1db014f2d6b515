"""Domain-agnostic time, space, map and graph constructs."""

from .bemap import BeMapKV, ComponentId, ComponentValue, ValueKind, build_bemap
from .geometry import Box3D, intersection_volume
from .graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from .terms import Atom, Xor
from .timing import (
    Addition,
    Constant,
    SymbolicScalar,
    TimeDuration,
    TimeDurationRange,
    TimePoint,
    Variable,
    evaluate,
    relative_duration,
    variables,
)

__all__ = [
    "Addition",
    "AnnotatedGraph",
    "Atom",
    "BeMapKV",
    "Box3D",
    "ComponentId",
    "ComponentValue",
    "Constant",
    "EdgeAnn",
    "SymbolicScalar",
    "TemporalConstraint",
    "TemporalCorrelation",
    "TimeDuration",
    "TimeDurationRange",
    "TimePoint",
    "ValueKind",
    "Variable",
    "Xor",
    "build_bemap",
    "evaluate",
    "intersection_volume",
    "relative_duration",
    "variables",
]
