"""Every call the benchmark makes into capstation, in one module.

The benchmark imports only public names that the CLI, the scripts or the
monitor's streaming interface (`StreamMonitor`, `compile_topology`,
`auto_horizon`) offer, and none that ROADMAP item 3 plans to delete.  It
iterates over what `read_trace` and `check_trace` return exactly once, so
lazy versions of them still run.  Importing it puts `src/` and `tests/`
on `sys.path` and imports capstation; set-up children time that import
themselves before importing this module.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def add_source_paths() -> None:
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


add_source_paths()

from capstation.core.bemap import ComponentId  # noqa: E402
from capstation.core.graph import AnnotatedGraph, EdgeAnn, TemporalConstraint  # noqa: E402
from capstation.core.timing import TimeDurationRange, TimePoint, relative_duration  # noqa: E402
from capstation.devices import DeviceKind, DeviceState, PhysicalEvent, Signal  # noqa: E402
from capstation.monitor import (  # noqa: E402
    MonitorConfig,
    Semantics,
    StreamMonitor,
    auto_horizon,
    check_trace,
    compile_topology,
)
from capstation.simulator import run_script  # noqa: E402
from capstation.station import TopologyName, build_catalog  # noqa: E402
from capstation.wire import read_script, read_trace, verdict_to_obj, write_trace  # noqa: E402

SEMANTICS = {"plant_rules": Semantics.EVENT_OCCURRENCE, "deep_history": Semantics.STATE_HOLDS}


# -- in-process workloads ------------------------------------------------------


def build_graph(devices, rules) -> Tuple[AnnotatedGraph, Dict[str, ComponentId]]:
    """The plant's rules as an annotated graph, causes and effects on any signal."""
    ids = {name: ComponentId(name) for name, _, _ in devices}
    edges = []
    for source, cause, target, effect, lo, hi, inverse in rules:
        cause_state = DeviceState(cause, Signal.DONT_CARE)
        window = TimeDurationRange(relative_duration(cause_state, lo), relative_duration(cause_state, hi))
        edges.append(
            EdgeAnn(
                ids[source],
                ids[target],
                TemporalConstraint(cause_state, window, DeviceState(effect, Signal.DONT_CARE), inverse),
            )
        )
    return AnnotatedGraph(tuple(edges)), ids


def compile_monitor(workload: str, graph: AnnotatedGraph, ids: Dict[str, ComponentId]):
    """Returns the compiled rules, the workload's config and a monitor ready for its first event."""
    cfg = MonitorConfig(semantics=SEMANTICS[workload])
    rules = compile_topology(graph, cfg, workload)
    return rules, cfg, StreamMonitor(rules, cfg, known_devices=ids.values())


def build_events(devices, events, ids: Dict[str, ComponentId]) -> List[PhysicalEvent]:
    """The plain events as the objects a producer would hand the monitor."""
    kinds = {name: DeviceKind(kind) for name, kind, _ in devices}
    states: Dict[Tuple[str, str], DeviceState] = {}
    out = []
    for t, device, name, signal in events:
        state = states.get((name, signal))
        if state is None:
            state = states[(name, signal)] = DeviceState(name, Signal(signal))
        out.append(PhysicalEvent(ids[device], kinds[device], TimePoint(t), state))
    return out


# -- station_pipe ----------------------------------------------------------------


def _compile_catalog(catalog, cfg) -> list:
    """The catalog's rules in check_trace's order."""
    rules: list = []
    for name in TopologyName:
        rules.extend(compile_topology(catalog.topologies[name], cfg, name.value, start_index=len(rules)))
    return rules


def station_rules() -> List[dict]:
    """The catalog's compiled rules as plain dicts."""
    return [
        {
            "topology": rule.topology,
            "source": rule.source.id,
            "target": rule.target.id,
            "cause": rule.cause.name,
            "cause_signal": rule.cause.signal.value,
            "effect": rule.effect.name,
            "window_ms": [rule.min_ms, rule.max_ms],
            "inverse": rule.inverse,
        }
        for rule in _compile_catalog(build_catalog(), MonitorConfig())
    ]


def station_setup(spans) -> None:
    """What `capstation monitor` does before its first event: catalog, rules, monitor."""
    with spans.span("station.build_catalog"):
        catalog = build_catalog()
    with spans.span("monitor.compile"):
        cfg = MonitorConfig()
        StreamMonitor(_compile_catalog(catalog, cfg), cfg, known_devices=catalog.devices)


def station_replay(catalog, script_path: Path, stack_count: int, seed: int, report_path: Path, spans):
    """The CLI's simulate | monitor --report sequence, in-process and in one thread.

    Returns the simulator's events, the trace text, the report objects and
    the report's size in bytes (json.dumps escapes non-ASCII, so characters
    are bytes).
    """
    with spans.span("wire.read_script"):
        script = read_script(str(script_path))
    with spans.span("simulator.run_script"):
        events = list(run_script(catalog, script, seed=seed, stack_count=stack_count))
    buf = io.StringIO()
    with spans.span("wire.write_trace"):
        write_trace(buf, events)
    text = buf.getvalue()
    with spans.span("wire.read_trace"):
        trace = read_trace(io.StringIO(text), kinds=catalog.devices)
    with spans.span("monitor.check_trace"):
        verdicts = check_trace(catalog, "all", trace, MonitorConfig())
    with spans.span("wire.report"):
        report = [verdict_to_obj(v) for v in verdicts]
        body = json.dumps(report, indent=2) + "\n"
        with open(report_path, "w", encoding="utf-8") as fp:
            fp.write(body)
    return events, text, report, len(body)


def read_trace_peak_mb(catalog, text: str) -> float:
    """Peak memory that read_trace allocates on the trace text, from tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        for _ in read_trace(io.StringIO(text), kinds=catalog.devices):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def plain_events(events: Sequence[PhysicalEvent]) -> List[tuple]:
    return [(e.timepoint.t, e.device.id, e.state.name, e.state.signal.value) for e in events]


def monitor_entries(verdicts, trace):
    """Verdicts as the oracle's (rule, cause index, outcome, witness index, decided_at)."""
    from oracle import monitor_entries as entries

    return entries(verdicts, trace)


def oracle_entries(rules, trace, end_time: int, state_mode: bool):
    from oracle import oracle_entries as entries

    return entries(rules, trace, end_time, auto_horizon(rules), state_mode=state_mode)


def oracle_state_decision(rule, trace, cause_index: int, end_time: int):
    """The oracle's decision for one state-semantics obligation.

    This uses `_decide_state_mode`, a private helper of tests/oracle.py:
    the public `oracle_entries` decides every obligation of a rule over the
    whole stream, which in state semantics is quadratic and too slow for
    deep_history.  A rename there stops the benchmark with a traceback.
    """
    from oracle import _decide_state_mode

    return _decide_state_mode(rule, trace, cause_index, end_time)
