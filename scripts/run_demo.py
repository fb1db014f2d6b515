#!/usr/bin/env python3
"""End-to-end demo: simulate the nominal cycle, monitor it, render DOT.

Runs the nominal scenario and a fault-injected variant against all three
topologies and prints the verdicts plus a DOT rendering of the causality
topology coloured with the final sensor states.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from capstation.dot import render_dot  # noqa: E402
from capstation.monitor import check_trace, violations  # noqa: E402
from capstation.scenarios import late_extension_fault, nominal_script  # noqa: E402
from capstation.simulator import run_script  # noqa: E402
from capstation.station import TopologyName, build_catalog  # noqa: E402


def report(label, catalog, trace) -> None:
    verdicts = list(check_trace(catalog, "all", trace))
    bad = violations(verdicts)
    print(f"== {label}: {len(trace)} events, {len(verdicts)} verdicts, {len(bad)} violations")
    for v in verdicts:
        mark = "FAIL" if v.outcome.is_violation else " ok "
        print(f"  [{mark}] {v.rule.topology:15s} {v.rule.label():70s} {v.outcome.value}")


def main() -> None:
    catalog = build_catalog()

    nominal = run_script(catalog, nominal_script())
    report("nominal cycle", catalog, nominal)

    faulty = run_script(catalog, nominal_script(), faults=late_extension_fault())
    report("late extension (350 ms)", catalog, faulty)

    last = {}
    for event in nominal:
        last[event.device] = event.state
    print()
    print(render_dot(catalog.topologies[TopologyName.CAUSALITY], last))


if __name__ == "__main__":
    main()
