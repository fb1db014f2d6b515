"""Spatio-temporal model, simulator and runtime monitor for the cap
dispenser processing station."""

import importlib

__version__ = "0.1.0"

# the exported names of each submodule, imported when one is first read, so
# that a process loads only the modules its command runs
_EXPORTS = {
    "monitor": ("MonitorConfig", "Outcome", "StreamMonitor", "check_trace"),
    "simulator": ("Simulation", "run_script"),
    "spatial": ("check_spatial",),
    "station": ("StationCatalog", "TopologyName", "build_catalog"),
    **dict.fromkeys(("core", "devices", "dot", "scenarios", "wire"), ()),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)
