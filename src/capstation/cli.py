"""Command-line surface tying the toolkit together.

Exit codes: 0 success, 1 violations or overlaps found, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .core.bemap import ComponentId
from .errors import ModelError
from .station import TopologyName, build_catalog

# Each command imports the rest of what it runs, so that a process of the
# simulate | monitor pipe does not load the other end's modules.

_TOPOLOGY_FLAGS = {
    "process-sequence": TopologyName.PROCESS_SEQUENCE,
    "causality": TopologyName.CAUSALITY,
    "avoidance": TopologyName.AVOIDANCE,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capstation",
        description="Cap dispenser station model, simulator and runtime monitor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="inspect the station model")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    dump = model_sub.add_parser("dump", help="dump the catalog or one topology")
    dump.add_argument("--topology", choices=sorted(_TOPOLOGY_FLAGS) + ["all"])
    dump.add_argument("--format", choices=["json", "dot"], default="json")
    dump.add_argument("--out", default="-")

    simulate = sub.add_parser("simulate", help="run a command script")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--faults")
    simulate.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the latency jitter; the CLI runs with 0 ms of jitter, "
        "so every seed gives the same trace",
    )
    simulate.add_argument("--stack-count", type=int, default=5)
    simulate.add_argument("--out", required=True)

    monitor = sub.add_parser("monitor", help="check a trace against a topology")
    monitor.add_argument("--trace", required=True)
    monitor.add_argument(
        "--topology", required=True, choices=sorted(_TOPOLOGY_FLAGS) + ["all"]
    )
    monitor.add_argument("--tolerance-ms", type=int, default=0)
    monitor.add_argument("--semantics", choices=["event", "state"], default="event")
    monitor.add_argument(
        "--sequence-unit", choices=["seconds", "milliseconds"], default="seconds"
    )
    monitor.add_argument("--report")

    spatial = sub.add_parser("check-spatial", help="pairwise occupancy overlap check")
    spatial.add_argument(
        "--all",
        action="store_true",
        help="include part envelopes, which legitimately sweep through sensor windows",
    )
    spatial.add_argument("--devices", nargs="*", help="restrict the check to these device ids")

    return parser


def _cmd_model_dump(args) -> int:
    from .dot import render_dot
    from .wire.common import _write_text
    from .wire.model import catalog_to_obj, graph_to_obj
    catalog = build_catalog()
    if args.topology is None:
        if args.format == "dot":
            print("model dump --format dot requires --topology", file=sys.stderr)
            return 2
        _write_text(args.out, json.dumps(catalog_to_obj(catalog), indent=2) + "\n")
        return 0
    if args.topology == "all":
        graphs = {name.value: catalog.topologies[name] for name in TopologyName}
    else:
        name = _TOPOLOGY_FLAGS[args.topology]
        graphs = {name.value: catalog.topologies[name]}
    if args.format == "json":
        payload = {label: graph_to_obj(g) for label, g in graphs.items()}
        if len(graphs) == 1:
            payload = next(iter(payload.values()))
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(args.out, "".join(render_dot(g) for g in graphs.values()))
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import stream_script
    from .wire.common import write_trace
    from .wire.script import read_faults, script_file
    if args.scenario == args.faults == "-":
        print("simulate: --scenario and --faults cannot both read stdin (-)", file=sys.stderr)
        return 2
    _not_an_input("--out", args.out, {"scenario": args.scenario, "fault file": args.faults})
    catalog = build_catalog()
    # a script file is checked whole before its first command is simulated
    with script_file(args.scenario) as script:
        faults = read_faults(args.faults) if args.faults else []
        events = stream_script(
            catalog, script, faults=faults, seed=args.seed, stack_count=args.stack_count
        )
        write_trace(args.out, events)
    return 0


def _not_an_input(flag: str, out: Optional[str], inputs: Dict[str, Optional[str]]) -> None:
    """Raise if the output path `out` is the file of an input path, by any
    link: opened for writing, it would empty the input before it is read."""
    for name, path in inputs.items():
        if {out, path}.isdisjoint({None, "-"}) and os.path.exists(out) and os.path.samefile(out, path):
            raise ValueError(f"{flag} {out} is the {name} being read")


def _cmd_monitor(args) -> int:
    from .monitor import MonitorConfig, Semantics, SequenceUnit, check_trace
    from .wire.common import opened
    from .wire.report import write_report
    from .wire.trace import read_trace
    _not_an_input("--report", args.report, {"trace": args.trace})
    catalog = build_catalog()
    cfg = MonitorConfig(
        correlation_tolerance_ms=args.tolerance_ms,
        sequence_unit=SequenceUnit(args.sequence_unit),
        semantics=Semantics(args.semantics),
    )
    topology = "all" if args.topology == "all" else _TOPOLOGY_FLAGS[args.topology]
    events = decided = bad = 0

    def counted(trace):
        nonlocal events
        for events, event in enumerate(trace, 1):
            yield event

    def alarmed(verdicts):
        nonlocal decided, bad
        for decided, verdict in enumerate(verdicts, 1):
            if verdict.outcome.is_violation:
                bad += 1
                print(
                    f"violation: {verdict.rule.label()} cause@{verdict.cause_time} "
                    f"-> {verdict.outcome.value}",
                    file=sys.stderr,
                    flush=True,
                )
            yield verdict

    # the trace opens first, so a missing one leaves --report untouched; the
    # alarms run inside the report's writer, so any error passes through its opener
    with opened(args.trace) as lines:
        trace = read_trace(lines, kinds=catalog.devices)
        verdicts = alarmed(check_trace(catalog, topology, counted(trace), cfg))
        if args.report is not None:
            verdicts = write_report(args.report, verdicts)
        for _ in verdicts:
            pass
    print(json.dumps({"events": events, "verdicts": decided, "violations": bad}))
    return 1 if bad else 0


def _cmd_check_spatial(args) -> int:
    from .spatial import check_spatial
    catalog = build_catalog()
    if args.devices:
        pool = [ComponentId(d) for d in args.devices]
    elif args.all:
        pool = None
    else:
        pool = catalog.sensors
    report = check_spatial(catalog, devices=pool)
    payload = [
        {
            "device_a": p.device_a.id,
            "device_b": p.device_b.id,
            "overlap": p.overlap,
            "shared_volume_mm3": p.shared_volume,
        }
        for p in report.pairs
    ]
    print(json.dumps({"pairs": payload, "overlaps": len(report.overlapping)}, indent=2))
    return 1 if report.has_overlap else 0


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "model":
            return _cmd_model_dump(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "monitor":
            return _cmd_monitor(args)
        if args.command == "check-spatial":
            return _cmd_check_spatial(args)
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
