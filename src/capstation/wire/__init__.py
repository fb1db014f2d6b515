"""Wire formats: tagged JSON for edges and values (written only), and
JSON-lines traces, scenario scripts and fault files (read and written).

Each part is the code one process runs, so that a process compiles only
its own part:

* `common`: the shared checks, `opened` (the one opener of a path, `-` or
  a file object, which also decides what a failed write leaves) and the
  line reader, the text of a live event, and `write_trace`;
* `trace`: the trace reader, `read_trace` and `event_from_obj` (monitor);
* `report`: `verdict_to_obj` and `write_report` (monitor);
* `script`: scripts and fault files (simulate);
* `model`: the model-dump JSON (`model dump`).

Every name below is importable from `capstation.wire` as before; it is
imported from its part when it is first read (PEP 562).

Traces stream: `write_trace` writes events in batches as they come,
`read_trace` yields each event as its line is read, and `write_report`
writes the report one verdict at a time; none holds the whole trace or
report.  The writers render each rule's and (device, state)'s text once,
by json.dumps.  The trace and script readers are their inverse: once
json.loads and the checks have read an event of a (device, state), or a
command of an (actuator, signal), a later line that is the writer's text
of it around a JSON integer in ASCII is read from that text alone.  Every
other line is read through json.loads and the checks, so every error is
the one that path raises.  Every input is decoded as UTF-8, from a path
or from stdin; a byte that is not UTF-8 is an error naming its place.
"""

import importlib

_EXPORTS = {
    "common": ("event_to_obj", "state_to_obj", "write_trace"),
    "trace": ("event_from_obj", "read_trace", "state_from_obj"),
    "report": ("verdict_to_obj", "write_report"),
    "script": (
        "faults_from_obj", "read_faults", "read_script", "script_file", "script_to_lines",
        "write_script",
    ),
    "model": (
        "annotation_to_obj", "catalog_to_obj", "component_value_to_obj", "description_to_obj",
        "duration_range_to_obj", "duration_to_obj", "edge_to_obj", "graph_to_obj",
    ),
}
_HOMES = {name: part for part, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    part = _HOMES.get(name)
    if part is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{part}"), name)
