from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstation.core.bemap import ComponentId
from capstation.core.graph import AnnotatedGraph, EdgeAnn
from capstation.station import (
    LOADER_PICKUP,
    STACK_EJECTOR_EXTEND,
    STACK_EJECTOR_RETRACTED,
    TopologyName,
)

SMOKE = ComponentId("Smoke Detector")
MOTION = ComponentId("Motion Sensor")
ALARM = ComponentId("Alarm")


def test_nodes_are_the_union_of_endpoints():
    g = AnnotatedGraph((EdgeAnn(SMOKE, ALARM), EdgeAnn(MOTION, ALARM)))
    assert g.nodes() == {SMOKE, MOTION, ALARM}


def test_empty_graph_has_no_nodes():
    assert AnnotatedGraph(()).nodes() == frozenset()


def test_self_loop_contributes_one_node():
    a = ComponentId("A")
    assert AnnotatedGraph((EdgeAnn(a, a),)).nodes() == {a}


def targets_of(graph, node):
    return [e.target for e in graph.edges if e.source == node]


def test_edges_from_documented_causality_source(catalog):
    g = catalog.topologies[TopologyName.CAUSALITY]
    assert STACK_EJECTOR_RETRACTED in targets_of(g, STACK_EJECTOR_EXTEND)


def test_edges_from_documented_avoidance_source(catalog):
    g = catalog.topologies[TopologyName.AVOIDANCE]
    assert targets_of(g, STACK_EJECTOR_EXTEND) == [LOADER_PICKUP]


def test_edges_from_absent_node_is_empty(catalog):
    g = catalog.topologies[TopologyName.CAUSALITY]
    assert targets_of(g, ComponentId("Nowhere")) == []


def test_duplicate_unannotated_edges_rejected():
    e = EdgeAnn(SMOKE, ALARM)
    with pytest.raises(ValueError):
        AnnotatedGraph((e, EdgeAnn(SMOKE, ALARM)))


def test_same_endpoints_with_distinct_annotations_allowed():
    g = AnnotatedGraph((EdgeAnn(SMOKE, ALARM, "a"), EdgeAnn(SMOKE, ALARM, "b")))
    assert len(g.edges) == 2


def test_edge_endpoints_must_be_component_ids():
    with pytest.raises(TypeError):
        EdgeAnn("Smoke Detector", ALARM)


names = st.text(min_size=1, max_size=4)
edges = st.builds(
    EdgeAnn,
    st.builds(ComponentId, names),
    st.builds(ComponentId, names),
    st.integers(0, 10_000),  # unique-ish annotations keep duplicates unlikely
)


@given(st.lists(edges, max_size=12, unique_by=lambda e: (e.source, e.target, e.annotation)))
def test_node_count_bounded_by_twice_the_edges(edge_list):
    g = AnnotatedGraph(tuple(edge_list))
    assert len(g.nodes()) <= 2 * len(g.edges)
