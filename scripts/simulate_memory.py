#!/usr/bin/env python3
"""Peak memory of `capstation simulate` as its script grows.

    python scripts/simulate_memory.py              # 1,200 and 12,000 cycles
    python scripts/simulate_memory.py 1000 5000

For each cycle count, the script is scenarios/two_cycles.jsonl's nominal
cycle followed by that many copies of its second cycle, copy k shifted by
k x 4.8 s, written to a temporary file.  `simulate --out /dev/null` runs on
each in a fresh process, which prints its VmHWM from /proc/self/status.
Exits 1 if the peak at the last count exceeds the peak at the first by
more than 5 %, and 2 if the system has no VmHWM.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
CYCLE_PERIOD_MS = 4800  # the second cycle of two_cycles.jsonl repeats every 4.8 s
NOMINAL_COMMANDS = 11  # two_cycles.jsonl's first cycle; the rest is the repeated one
BOUND = 0.05

# runs simulate through cli_main, then prints its exit code and VmHWM in kB
_CHILD = (
    "import sys; from capstation.cli import cli_main; code = cli_main(sys.argv[1:]); "
    "status = open('/proc/self/status').read(); print(code, status.split('VmHWM:')[1].split()[0])"
)


def write_cycles(path: pathlib.Path, cycles: int) -> None:
    """The nominal cycle, then `cycles` shifted copies of the second cycle."""
    with open(ROOT / "scenarios" / "two_cycles.jsonl", encoding="utf-8") as fp:
        commands = [json.loads(line) for line in fp if line.strip()]
    head, cycle = commands[:NOMINAL_COMMANDS], commands[NOMINAL_COMMANDS:]
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(json.dumps(c) + "\n" for c in head)
        for k in range(cycles):
            out.writelines(
                json.dumps({**c, "time_ms": c["time_ms"] + k * CYCLE_PERIOD_MS}) + "\n" for c in cycle
            )


def peak_mb(cycles: int, tmp: pathlib.Path) -> float:
    """simulate's VmHWM on a script of `cycles` cycles, one cap per cycle."""
    script = tmp / f"cycles-{cycles}.jsonl"
    write_cycles(script, cycles)
    argv = ["simulate", "--scenario", str(script), "--stack-count", str(cycles + 1), "--out", os.devnull]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], env=env, capture_output=True, text=True, check=True
    )
    code, kb = run.stdout.split()
    if code != "0":
        raise SystemExit(f"simulate exited {code} on {cycles} cycles: {run.stderr.strip()}")
    return int(kb) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cycles", nargs="*", type=int, default=[1200, 12000])
    args = parser.parse_args()
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            if "VmHWM:" not in fp.read():
                raise OSError("no VmHWM line")
    except OSError as exc:
        print(f"cannot read a peak resident size here: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        peaks = [peak_mb(cycles, pathlib.Path(tmp)) for cycles in args.cycles]
    for cycles, peak in zip(args.cycles, peaks):
        print(f"{cycles} cycles: VmHWM {peak:.1f} MB")
    growth = peaks[-1] / peaks[0] - 1
    print(f"growth {growth:+.1%} (bound {BOUND:.0%})")
    return 1 if growth > BOUND else 0


if __name__ == "__main__":
    sys.exit(main())
