"""Spatio-temporal model, simulator and runtime monitor for the cap
dispenser processing station."""

from . import core, devices, dot, monitor, scenarios, simulator, station, wire
from .monitor import MonitorConfig, Outcome, StreamMonitor, check_spatial, check_trace
from .simulator import Simulation, run_script
from .station import StationCatalog, TopologyName, build_catalog

__version__ = "0.1.0"

__all__ = [
    "MonitorConfig",
    "Outcome",
    "Simulation",
    "StationCatalog",
    "StreamMonitor",
    "TopologyName",
    "build_catalog",
    "check_spatial",
    "check_trace",
    "core",
    "devices",
    "dot",
    "monitor",
    "run_script",
    "scenarios",
    "simulator",
    "station",
    "wire",
]
