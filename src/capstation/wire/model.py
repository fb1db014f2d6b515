"""The model dump: edges, component values and the catalog as tagged JSON,
written only.

Edge serialization reproduces the established fixture structure exactly:
type tags ("EdgeAnnotated", "Component", "FestoStateCorrelation",
"FestoStateConstraint", "TimeDuration", "TimeDurationRange", "SS Variable",
"SS Addition", "SS Constant"), key order (type, source, target, annotation),
and plain integer constants.  The scalar tags contain a space on purpose.

State specifications inside annotations carry no signal field (the
don't-care level is implied).  Only `model dump` runs this part; neither
pipe process loads it.
"""

from __future__ import annotations

from ..core.bemap import BeMapKV, ComponentId, ComponentValue, ValueKind
from ..core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint, TemporalCorrelation
from ..core.timing import TimeDuration, TimeDurationRange
from ..devices import DeviceState, Signal, SignalMapping
from ..errors import UnsupportedAnnotationError
from .common import state_to_obj


def duration_to_obj(duration: TimeDuration) -> dict:
    """The BeSpaceD form of an offset: from the anchor to anchor + offset."""
    if not isinstance(duration.anchor, DeviceState):
        raise UnsupportedAnnotationError(
            f"only state-specification variables serialize, got {duration.anchor!r}"
        )
    anchor = {"type": "SS Variable", "expression": state_to_obj(duration.anchor)}
    offset = {"type": "SS Constant", "expression": duration.offset_ms}
    return {
        "type": "TimeDuration",
        "start": anchor,
        "scalar": {"type": "SS Addition", "expression": [anchor, offset]},
    }


def duration_range_to_obj(window: TimeDurationRange) -> dict:
    return {
        "type": "TimeDurationRange",
        "minimum": duration_to_obj(window.minimum),
        "maximum": duration_to_obj(window.maximum),
    }


def annotation_to_obj(annotation) -> dict:
    if not isinstance(annotation, (TemporalCorrelation, TemporalConstraint)):
        raise UnsupportedAnnotationError(f"unsupported annotation: {annotation!r}")
    if not all(isinstance(s, DeviceState) for s in (annotation.cause, annotation.effect)):
        raise UnsupportedAnnotationError("annotation states must be device states")
    if isinstance(annotation, TemporalCorrelation):
        return {
            "type": "FestoStateCorrelation",
            "cause": state_to_obj(annotation.cause),
            "duration": duration_to_obj(annotation.duration),
            "effect": state_to_obj(annotation.effect),
        }
    out = {
        "type": "FestoStateConstraint",
        "cause": state_to_obj(annotation.cause),
        "durationRange": duration_range_to_obj(annotation.range),
        "effect": state_to_obj(annotation.effect),
    }
    if annotation.inverse:
        out["inverse"] = True
    return out


def _component_to_obj(component: ComponentId) -> dict:
    return {"type": "Component", "id": component.id}


def edge_to_obj(edge: EdgeAnn) -> dict:
    return {
        "type": "EdgeAnnotated",
        "source": _component_to_obj(edge.source),
        "target": _component_to_obj(edge.target),
        "annotation": annotation_to_obj(edge.annotation),
    }


def graph_to_obj(graph: AnnotatedGraph) -> list:
    return [edge_to_obj(edge) for edge in graph.edges]


def _signal_mapping_to_obj(mapping: SignalMapping) -> dict:
    return {
        Signal.HIGH.value: state_to_obj(mapping.high),
        Signal.LOW.value: state_to_obj(mapping.low),
    }


def component_value_to_obj(value: ComponentValue) -> dict:
    kind = value.kind
    if kind is ValueKind.STRING or kind is ValueKind.INTEGER:
        return {"kind": kind.value, "value": value.value}
    if kind is ValueKind.BOX:
        b = value.value
        return {"kind": kind.value, "value": [b.x1, b.y1, b.z1, b.x2, b.y2, b.z2]}
    if kind is ValueKind.SIGNAL_MAP:
        return {"kind": kind.value, "value": _signal_mapping_to_obj(value.value)}
    if kind is ValueKind.VARIATIONS:
        return {"kind": kind.value, "value": list(value.value.positions)}
    if kind is ValueKind.STATE:
        return {"kind": kind.value, "value": state_to_obj(value.value)}
    raise UnsupportedAnnotationError(f"unsupported value kind: {kind}")


def description_to_obj(description: BeMapKV) -> list:
    return [
        {"key": key.id, "value": component_value_to_obj(value)}
        for key, value in description.entries
    ]


def catalog_to_obj(catalog) -> dict:
    return {
        "devices": {d.id: k.value for d, k in catalog.devices.items()},
        "descriptions": {
            d.id: description_to_obj(desc) for d, desc in catalog.descriptions.items()
        },
        "topologies": {
            name.value: graph_to_obj(graph) for name, graph in catalog.topologies.items()
        },
        "synthetic_edges": sorted(
            [t.value, s.id, g.id, c, e] for t, s, g, c, e in catalog.synthetic_edges
        ),
        "synthetic_entries": sorted([d.id, k.id] for d, k in catalog.synthetic_entries),
    }
