"""Command-line surface tying the toolkit together.

Exit codes: 0 success, 1 violations or overlaps found, 2 usage or input
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from typing import Iterator, List, Optional, TextIO

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
    from .simulator import stream_script
    from .wire.common import write_trace
    from .wire.script import read_faults, read_script, script_file
    if args.scenario == args.faults == "-":
        print("simulate: --scenario and --faults cannot both read stdin (-)", file=sys.stderr)
        return 2
    catalog = build_catalog()
    # a script file is checked whole before its first command is simulated
    if args.scenario == "-":
        scenario = contextlib.nullcontext(read_script(sys.stdin))
    else:
        scenario = script_file(args.scenario)
    with scenario as script:
        source = sys.stdin if args.faults == "-" else args.faults
        faults = read_faults(source) if args.faults else []
        events = stream_script(
            catalog, script, faults=faults, seed=args.seed, stack_count=args.stack_count
        )
        write_trace(sys.stdout if args.out == "-" else args.out, events)
    return 0


@contextlib.contextmanager
def _report_file(report: Optional[str], trace: str) -> Iterator[Optional[TextIO]]:
    """Where --report goes.  If the run fails, a regular file that this run
    created is removed; a file or device that was there before is left as
    far as it was written.  It may not be the trace file: opened first, it
    would empty the trace."""
    if report is None or report == "-":
        yield None if report is None else sys.stdout
        return
    if trace != "-" and os.path.realpath(report) == os.path.realpath(trace):
        raise ValueError(f"--report {report} is the trace being read")
    created = not os.path.lexists(report)
    fp = open(report, "w", encoding="utf-8")
    created = created and stat.S_ISREG(os.fstat(fp.fileno()).st_mode)
    try:
        with fp:
            yield fp
    except BaseException:
        if created:
            os.remove(report)
        raise


def _cmd_monitor(args) -> int:
    from .monitor import MonitorConfig, Semantics, SequenceUnit, check_trace
    from .wire.report import write_report
    from .wire.trace import read_trace
    catalog = build_catalog()
    cfg = MonitorConfig(
        correlation_tolerance_ms=args.tolerance_ms,
        sequence_unit=SequenceUnit(args.sequence_unit),
        semantics=Semantics(args.semantics),
    )
    topology = "all" if args.topology == "all" else _TOPOLOGY_FLAGS[args.topology]
    events = 0

    def counted(trace):
        nonlocal events
        for events, event in enumerate(trace, 1):
            yield event

    decided = bad = 0
    # the trace opens first, so a missing one leaves --report untouched
    if args.trace == "-":
        source = contextlib.nullcontext(sys.stdin)
    else:
        source = open(args.trace, encoding="utf-8")
    with source as lines, _report_file(args.report, args.trace) as report:
        trace = read_trace(lines, kinds=catalog.devices)
        verdicts = check_trace(catalog, topology, counted(trace), cfg)
        if report is not None:
            verdicts = write_report(report, verdicts)
        for verdict in verdicts:
            decided += 1
            if verdict.outcome.is_violation:
                bad += 1
                print(
                    f"violation: {verdict.rule.label()} cause@{verdict.cause_time} "
                    f"-> {verdict.outcome.value}",
                    file=sys.stderr,
                    flush=True,
                )
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
