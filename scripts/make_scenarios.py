#!/usr/bin/env python3
"""Regenerate the shipped scenario and fault files under scenarios/."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from capstation.scenarios import late_extension_fault, nominal_script, two_cycles_script  # noqa: E402
from capstation.wire import script_to_lines  # noqa: E402


def scenario_files() -> Dict[str, str]:
    """File name under scenarios/ -> the text this script writes there."""
    faults = [
        {
            "fault": "latency-override",
            "device": fault.device.id,
            "latency_ms": fault.latency_ms,
            "transition": fault.transition,
        }
        for fault in late_extension_fault()
    ]
    return {
        "nominal.jsonl": script_to_lines(nominal_script()),
        "two_cycles.jsonl": script_to_lines(two_cycles_script()),
        "faults_late_extension.json": json.dumps(faults, indent=2) + "\n",
    }


def main(argv: Optional[List[str]] = None) -> None:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    root.mkdir(exist_ok=True)
    for name, text in scenario_files().items():
        (root / name).write_text(text)
        print(f"wrote {root / name}")


if __name__ == "__main__":
    main()
