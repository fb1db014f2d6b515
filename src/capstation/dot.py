"""Graph-description (DOT) export of a topology with live state colouring.

Nodes are sorted by id for deterministic output.  A red node means the
device's last known state is Obstructed, green any other known state,
gray unknown.  Edges carry a compact rule summary.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .core.bemap import ComponentId
from .core.graph import AnnotatedGraph, TemporalConstraint, TemporalCorrelation
from .devices import DeviceState


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _color(state: Optional[DeviceState]) -> str:
    if state is None:
        return "gray"
    return "red" if state.name == "Obstructed" else "green"


def edge_label(annotation) -> str:
    if isinstance(annotation, TemporalCorrelation):
        delta = annotation.duration.offset_ms
        return f"{annotation.cause.name} →[Δ={delta}]→ {annotation.effect.name}"
    if isinstance(annotation, TemporalConstraint):
        lo = annotation.range.minimum.offset_ms
        hi = annotation.range.maximum.offset_ms
        head = "forbids" if annotation.inverse else ""
        label = f"{annotation.cause.name} →[{lo},{hi}]→ {annotation.effect.name}"
        return f"{label} ({head})" if head else label
    return ""


def render_dot(
    topology: AnnotatedGraph,
    last_states: Optional[Mapping[ComponentId, DeviceState]] = None,
) -> str:
    last_states = last_states or {}
    lines = ["digraph topology {"]
    for node in sorted(topology.nodes()):
        color = _color(last_states.get(node))
        lines.append(f"  {_quote(node.id)} [style=filled, fillcolor={color}];")
    for edge in topology.edges:
        label = edge_label(edge.annotation) if edge.annotation is not None else ""
        attrs = f' [label="{label}"]' if label else ""
        lines.append(f"  {_quote(edge.source.id)} -> {_quote(edge.target.id)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
