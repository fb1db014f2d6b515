from __future__ import annotations

from capstation.devices import OBSTRUCTED_HIGH, UNOBSTRUCTED_LOW
from capstation.dot import render_dot
from capstation.station import LOADER_DROPPED_OFF, TopologyName


def test_obstructed_sensor_renders_red(catalog):
    graph = catalog.topologies[TopologyName.PROCESS_SEQUENCE]
    doc = render_dot(graph, {LOADER_DROPPED_OFF: OBSTRUCTED_HIGH})
    assert '"Loader Dropped Off" [style=filled, fillcolor=red];' in doc


def test_unobstructed_sensor_renders_green(catalog):
    graph = catalog.topologies[TopologyName.PROCESS_SEQUENCE]
    doc = render_dot(graph, {LOADER_DROPPED_OFF: UNOBSTRUCTED_LOW})
    assert '"Loader Dropped Off" [style=filled, fillcolor=green];' in doc


def test_unknown_states_render_gray(catalog):
    doc = render_dot(catalog.topologies[TopologyName.PROCESS_SEQUENCE])
    assert doc.count("fillcolor=gray") == 2


def test_causality_edge_label_shows_the_window(catalog):
    doc = render_dot(catalog.topologies[TopologyName.CAUSALITY])
    assert "Active →[200,300]→ Unobstructed" in doc


def test_correlation_edge_label_shows_the_delay(catalog):
    doc = render_dot(catalog.topologies[TopologyName.PROCESS_SEQUENCE])
    assert "Obstructed →[Δ=3]→ Obstructed" in doc


def test_every_topology_node_is_rendered(catalog):
    for graph in catalog.topologies.values():
        doc = render_dot(graph)
        for node in graph.nodes():
            assert f'"{node.id}"' in doc


def test_output_is_deterministic(catalog):
    g = catalog.topologies[TopologyName.CAUSALITY]
    states = {LOADER_DROPPED_OFF: OBSTRUCTED_HIGH}
    assert render_dot(g, states) == render_dot(g, states)
