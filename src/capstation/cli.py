"""Command-line surface tying the toolkit together.

Exit codes: 0 success, 1 violations or overlaps found, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core.bemap import ComponentId
from .dot import render_dot
from .errors import ModelError
from .monitor import MonitorConfig, Semantics, SequenceUnit, check_spatial, check_trace, violations
from .simulator import run_script
from .station import TopologyName, build_catalog
from .wire import (
    _write_text,
    catalog_to_obj,
    graph_to_obj,
    read_faults,
    read_script,
    read_trace,
    verdict_to_obj,
    write_trace,
)

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
    simulate.add_argument("--seed", type=int, default=0)
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
    catalog = build_catalog()
    out = sys.stdout if args.out == "-" else args.out
    if args.topology is None:
        if args.format == "dot":
            print("model dump --format dot requires --topology", file=sys.stderr)
            return 2
        _write_text(out, json.dumps(catalog_to_obj(catalog), indent=2) + "\n")
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
        _write_text(out, json.dumps(payload, indent=2) + "\n")
    else:
        text = "".join(render_dot(g) for g in graphs.values())
        _write_text(out, text)
    return 0


def _cmd_simulate(args) -> int:
    catalog = build_catalog()
    script = read_script(sys.stdin if args.scenario == "-" else args.scenario)
    faults = read_faults(args.faults) if args.faults else []
    events = run_script(
        catalog, script, faults=faults, seed=args.seed, stack_count=args.stack_count
    )
    write_trace(sys.stdout if args.out == "-" else args.out, events)
    return 0


def _cmd_monitor(args) -> int:
    catalog = build_catalog()
    trace = read_trace(sys.stdin if args.trace == "-" else args.trace, kinds=catalog.devices)
    cfg = MonitorConfig(
        correlation_tolerance_ms=args.tolerance_ms,
        sequence_unit=SequenceUnit(args.sequence_unit),
        semantics=Semantics.EVENT_OCCURRENCE if args.semantics == "event" else Semantics.STATE_HOLDS,
    )
    topology = "all" if args.topology == "all" else _TOPOLOGY_FLAGS[args.topology]
    verdicts = check_trace(catalog, topology, trace, cfg)
    bad = violations(verdicts)
    if args.report:
        report = [verdict_to_obj(v) for v in verdicts]
        report_out = sys.stdout if args.report == "-" else args.report
        _write_text(report_out, json.dumps(report, indent=2) + "\n")
    summary = {
        "events": len(trace),
        "verdicts": len(verdicts),
        "violations": len(bad),
    }
    print(json.dumps(summary))
    for verdict in bad:
        print(
            f"violation: {verdict.rule.label()} cause@{verdict.cause_time} "
            f"-> {verdict.outcome.value}",
            file=sys.stderr,
        )
    return 1 if bad else 0


def _cmd_check_spatial(args) -> int:
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
