#!/usr/bin/env python3
"""capstation's benchmark: three seeded batch workloads, checked and timed.

One run of one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload station_pipe --seed 7 --seconds 15 --trace 0

Every workload, untraced and then traced, with every check (exit 1 if any
check fails, 2 if capstation's sources are not there):

    python3 perfbench/run.py

Only the Python standard library is used, and capstation runs from src/ in
place: nothing is installed.  perfbench/README.md describes the workloads,
the metrics, and the figures measured so far.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import speed  # the benchmark's own module; capstation is imported only once its sources are checked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-runs"
WORKLOADS = ("station_pipe", "plant_rules", "deep_history")
RUN_SECONDS = 25  # BENCHMARK.json's run_seconds; the bounds were measured at this length
SETUP_REPEATS = 9
ROUND_PROCESSES = 3
DEEP_ORACLE_SAMPLE = 40
# On station_pipe the layers' self-times must cover the in-process pipe's
# wall time but for this share, which is the benchmark's own glue.
UNATTRIBUTED_TOLERANCE = 0.02

REQUIRED = ("src/capstation/__init__.py", "tests/oracle.py", "scenarios/two_cycles.jsonl", "scenarios/nominal.jsonl")

E2E_UNITS = {"setup_s": "s", "events_per_s": "events/s", "peak_rss_mb": "MB", "first_alarm_s": "s"}
SRC_MODULES = (
    "__init__", "__main__", "cli", "devices", "dot", "errors", "monitor", "scenarios",
    "simulator", "station", "wire", "core.__init__", "core.bemap", "core.geometry",
    "core.graph", "core.terms", "core.timing",
)
LAYER_UNITS = {
    "cli.import_s": "s",
    "station.build_catalog_s": "s",
    "monitor.compile_s": "s",
    "simulator.run_script_s": "s",
    "simulator.events_per_s": "events/s",
    "wire.read_script_s": "s",
    "wire.write_trace_s": "s",
    "wire.read_trace_s": "s",
    "wire.trace_bytes": "bytes",
    "wire.read_trace_peak_mb": "MB",
    "wire.report_s": "s",
    "wire.report_bytes": "bytes",
    "monitor.check_s": "s",
    "monitor.match_ratio": "ratio",
    "monitor.open_peak": "count",
    "monitor.lookback_peak": "count",
    "monitor.verdicts": "count",
    "monitor.violations": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "ratio",
    **{f"src_lines.{m}": "lines" for m in SRC_MODULES},
    "src_lines.total": "lines",
}


class ProgramFailed(Exception):
    """capstation failed a step that the workload's rounds depend on.

    The run then counts as one attempted operation that failed.
    """


def log(message: str) -> None:
    print(message, flush=True)


def tail(data: bytes) -> str:
    return data.decode(errors="replace")[-800:]


# -- child processes ------------------------------------------------------------


def child_env(samples: Optional[Path] = None, setup: bool = False) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same string hashing on every run
    env.pop("PERFBENCH_SETUP", None)
    if samples is not None:
        env["PERFBENCH_SAMPLES"] = str(samples)
    if setup:
        env["PERFBENCH_SETUP"] = "1"
    return env


def run_child(args: List[str], tmp: Path, samples: Optional[Path] = None, setup: bool = False):
    """Run one child to its end; returns (exit code, stdout, stderr, wall s)."""
    with open(tmp / "child.out", "w+b") as out, open(tmp / "child.err", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(samples, setup), cwd=ROOT)
        try:
            code = proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read(), wall


def cli(*args: str) -> List[str]:
    """A capstation command: `python -m capstation ARGS` under the speed sampler."""
    return [sys.executable, str(HERE / "clirun.py"), *args]


def inproc(*args) -> List[str]:
    return [sys.executable, str(HERE / "inproc.py"), *map(str, args)]


def read_samples(*paths: Path):
    """Total pass time, pass count and largest peak RSS over the sample files of CLI processes."""
    data = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    return sum(d["passes_s"] for d in data), sum(d["count"] for d in data), max(d["rss_mb"] for d in data)


def setup_spans(workload: str, seed: int, tmp: Path, repeats: int = 3) -> Dict[str, float]:
    """Per-layer set-up self-times: medians over fresh set-up children."""
    from spans import Spans

    samples: Dict[str, List[float]] = {}
    for _ in range(repeats):
        code, out, err, _ = run_child(inproc("setup", workload, seed), tmp)
        if code != 0:
            raise ProgramFailed(f"set-up exited {code}: {tail(err)}")
        spans = Spans()
        spans.rows = json.loads(out)["spans"]
        for name, value in spans.self_times().items():
            samples.setdefault(name, []).append(value)
    return {name: median(values) for name, values in samples.items()}


# -- station_pipe ----------------------------------------------------------------


def read_trace_file(path: Path) -> List[tuple]:
    """A JSON-lines trace as plain events, parsed by the benchmark itself."""
    events = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.strip():
                o = json.loads(line)
                events.append((o["timepoint"], o["component"], o["state"]["type"], o["state"]["signal"]))
    return events


class Station:
    """station_pipe's input files, its expected outputs, and its runs."""

    def __init__(self, seed: int, tmp: Path):
        import checks
        import inputs
        import program

        self.seed, self.tmp = seed, tmp
        self.spec = inputs.station_pipe(seed, inputs.read_script_lines(ROOT / "scenarios" / "two_cycles.jsonl"))
        self.script = tmp / "script.jsonl"
        with open(self.script, "w", encoding="utf-8") as fp:
            for command in self.spec.commands:
                fp.write(json.dumps(command) + "\n")
        self.rules = program.station_rules()
        trace = tmp / "trace.jsonl"
        code, _, err, _ = run_child(self.simulate(str(trace)), tmp, tmp / "sim.samples")
        if code != 0:
            raise ProgramFailed(f"simulate exited {code}: {tail(err)}")
        self.events = read_trace_file(trace)
        self.expect = checks.station_expectation(self.rules, self.events, self.spec)

    def simulate(self, out: str) -> List[str]:
        return cli(
            "simulate", "--scenario", str(self.script), "--seed", str(self.seed),
            "--stack-count", str(self.spec.stack_count), "--out", out,
        )

    def setup_samples(self) -> List[float]:
        """Wall time of `capstation monitor --topology all` on the nominal scenario's trace."""
        nominal = self.tmp / "nominal_trace.jsonl"
        samples_file = self.tmp / "setup.samples"
        code, _, err, _ = run_child(
            cli("simulate", "--scenario", "scenarios/nominal.jsonl", "--out", str(nominal)), self.tmp, samples_file
        )
        if code != 0:
            raise ProgramFailed(f"simulate on the nominal scenario exited {code}: {tail(err)}")
        args = cli("monitor", "--trace", str(nominal), "--topology", "all")
        samples = []
        for rep in range(SETUP_REPEATS + 1):
            code, _, err, wall = run_child(args, self.tmp, samples_file, setup=True)
            if code != 0:
                raise ProgramFailed(f"monitor on the nominal trace exited {code}: {tail(err)}")
            if rep:  # the first run fills bytecode and file caches
                passes, count, _ = read_samples(samples_file)
                samples.append(speed.normalised(wall, passes, count))
        return samples

    def pipe_round(self, report: Path) -> dict:
        """simulate --out - | monitor --trace - --report, as two processes."""
        import checks

        sim_samples, mon_samples = self.tmp / "sim.samples", self.tmp / "mon.samples"
        start = perf_counter()
        sim = subprocess.Popen(
            self.simulate("-"), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(sim_samples), cwd=ROOT
        )
        mon = None
        try:
            mon = subprocess.Popen(
                cli("monitor", "--trace", "-", "--topology", "all", "--report", str(report)),
                stdin=sim.stdout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(mon_samples), cwd=ROOT,
            )
            sim.stdout.close()
            first = None
            alarms = 0
            for line in mon.stderr:
                if line.startswith(b"violation:"):
                    alarms += 1
                    if first is None:
                        first = perf_counter() - start
            out = mon.stdout.read()
            mon.stdout.close()
            mon.stderr.close()
            mon_code = mon.wait()
            sim_code = sim.wait()
            wall = perf_counter() - start
        finally:
            for proc in (sim, mon):
                if proc is not None and proc.returncode is None:
                    proc.kill()
                    proc.wait()
        try:
            summary = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            summary = None
        # A process that crashed fails the exit-code or the summary check, so
        # a round that passes them has both sample files and its report.
        failures = checks.check_station_cli(sim_code, mon_code, summary, alarms, self.expect)
        if failures:
            return {"wall_s": wall, "failures": failures}
        with open(report, encoding="utf-8") as fp:
            failures = checks.check_station_report(json.load(fp), self.rules, self.expect)
        passes, count, rss = read_samples(sim_samples, mon_samples)
        norm = speed.normalised(wall, passes, count)
        return {
            "wall_s": wall, "norm_s": norm, "first_alarm_s": first * norm / wall, "rss_mb": rss, "failures": failures,
        }


def tally(rounds: List[dict]):
    """The rounds that passed every check, and each failure named by its round."""
    ok = [r for r in rounds if not r["failures"]]
    failures = [f"round {i}: {f}" for i, r in enumerate(rounds, 1) for f in r["failures"]]
    return ok, failures


def station_untraced(seed: int, seconds: float, tmp: Path) -> dict:
    st = Station(seed, tmp)
    setup = st.setup_samples()
    rounds = []
    budget = speed.Budget(seconds)
    while budget.next():
        r = st.pipe_round(tmp / "report.json")
        rounds.append(r)
        if r["failures"]:
            log(f"station_pipe round {len(rounds)}: FAILED in {r['wall_s']:.3f} s")
        else:
            log(f"station_pipe round {len(rounds)}: {st.expect['events']} events in {r['wall_s']:.3f} s "
                f"(normalised {r['norm_s']:.3f} s), first alarm {r['first_alarm_s']:.3f} s, {r['rss_mb']:.1f} MB")
    ok, failures = tally(rounds)
    metrics = {}
    if ok:
        metrics = {
            "setup_s": median(setup),
            "events_per_s": median([st.expect["events"] / r["norm_s"] for r in ok]),
            "peak_rss_mb": median([r["rss_mb"] for r in ok]),
            "first_alarm_s": median([r["first_alarm_s"] for r in ok]),
        }
    return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": metrics}


def station_traced(seed: int, seconds: float, tmp: Path) -> dict:
    """The CLI's sequence replayed in-process, alternately untraced and traced."""
    import checks
    import program
    from spans import NoSpans, Spans

    st = Station(seed, tmp)
    layers = setup_spans("station_pipe", seed, tmp)
    catalog = program.build_catalog()
    rounds: List[dict] = []
    last = None
    budget = speed.Budget(seconds)
    while budget.next() or len(rounds) < 2:  # a traced run needs one round of each
        r = {"traced": len(rounds) % 2 == 1, "failures": []}
        rounds.append(r)
        spans = Spans() if r["traced"] else None
        start = perf_counter()
        root = spans.begin("pipe") if spans else None
        try:
            events, text, report, report_bytes = program.station_replay(
                catalog, st.script, st.spec.stack_count, seed, tmp / "report.json", spans or NoSpans()
            )
        except Exception as exc:  # the program failed this round; the next rounds still run
            r["failures"].append(f"the in-process pipe raised {type(exc).__name__}: {exc}")
            continue
        if spans:
            spans.end(root)
            r["wall_s"], r["spans"] = spans.rows[root][2] - spans.rows[root][1], spans
        else:
            r["wall_s"] = perf_counter() - start
        if program.plain_events(events) != st.events:
            r["failures"].append("the in-process simulation differs from the CLI's trace")
        r["failures"] += checks.check_station_report(report, st.rules, st.expect)
        if not r["failures"]:
            verdicts = [(v["cause_event"]["timepoint"], v["decided_at"], v["outcome"]) for v in report]
            last = (text, report_bytes, verdicts)
        del events, report
    ok, failures = tally(rounds)
    traced = sorted((r for r in ok if r["traced"]), key=lambda r: r["wall_s"])
    untraced = [r["wall_s"] for r in ok if not r["traced"]]
    if not (traced and untraced):
        return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": {}}
    text, report_bytes, verdicts = last
    wall, spans = traced[len(traced) // 2]["wall_s"], traced[len(traced) // 2]["spans"]
    self_s = spans.self_times()
    write_spans("station_pipe", seed, spans.rows)
    metrics = {
        "cli.import_s": layers["cli.import"],
        "station.build_catalog_s": layers["station.build_catalog"],
        "monitor.compile_s": layers["monitor.compile"],
        "simulator.run_script_s": self_s["simulator.run_script"],
        "simulator.events_per_s": len(st.events) / self_s["simulator.run_script"],
        "wire.read_script_s": self_s["wire.read_script"],
        "wire.write_trace_s": self_s["wire.write_trace"],
        "wire.read_trace_s": self_s["wire.read_trace"],
        "wire.trace_bytes": len(text.encode("utf-8")),
        "wire.read_trace_peak_mb": program.read_trace_peak_mb(catalog, text),
        "wire.report_s": self_s["wire.report"],
        "wire.report_bytes": report_bytes,
        "monitor.check_s": self_s["monitor.check_trace"],
        "trace.overhead_s": median([r["wall_s"] for r in traced]) - median(untraced),
        "trace.unattributed_share": self_s["pipe"] / wall,
        **checks.monitor_counts(st.rules, st.events, verdicts),
    }
    if metrics["trace.unattributed_share"] > UNATTRIBUTED_TOLERANCE:
        failures.append(f"layer self-times miss {metrics['trace.unattributed_share']:.1%} of the pipe's time")
    return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": metrics}


# -- in-process workloads ------------------------------------------------------------


def inproc_setup_samples(workload: str, seed: int, tmp: Path) -> List[float]:
    samples = []
    for rep in range(SETUP_REPEATS + 1):
        code, out, err, wall = run_child(inproc("setup", workload, seed), tmp)
        if code != 0:
            raise ProgramFailed(f"set-up exited {code}: {tail(err)}")
        if rep:  # the first run fills bytecode and file caches
            child = json.loads(out)
            samples.append(speed.normalised(wall - child["gen_s"], child["passes_s"], child["count"]))
    return samples


def inproc_rounds(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """One rounds child.  A child that exits with an error counts as one failed round."""
    entries_path, spans_path = tmp / "entries.json", tmp / "spans.json"
    entries_path.unlink(missing_ok=True)
    code, out, err, _ = run_child(
        inproc("rounds", workload, seed, seconds, int(trace), entries_path, spans_path), tmp
    )
    if code != 0:
        return {"rounds": [{"failures": [f"the rounds process exited {code}: {tail(err)}"]}], "entries": None}
    result = json.loads(out)
    result["entries"] = None
    if entries_path.exists():
        with open(entries_path, encoding="utf-8") as fp:
            result["entries"] = Counter({tuple(row[:-1]): row[-1] for row in json.load(fp)})
    if trace and spans_path.exists():
        with open(spans_path, encoding="utf-8") as fp:
            result["spans"] = json.load(fp)
    return result


def check_inproc(workload: str, seed: int, plain, entries: Counter) -> List[str]:
    """Compare the verdicts with the oracle: all of them, or a seeded sample."""
    import checks
    import inputs
    import program

    graph, ids = program.build_graph(plain.devices, plain.rules)
    rules, _, _ = program.compile_monitor(workload, graph, ids)
    events = program.build_events(plain.devices, plain.events, ids)
    end = events[-1].timepoint.t
    start = perf_counter()
    if workload == "plant_rules":
        failures = checks.check_against_oracle(entries, program.oracle_entries(rules, events, end, False))
        log(f"plant_rules: oracle over all {len(events)} events and {len(rules)} rules "
            f"in {perf_counter() - start:.1f} s")
        return failures
    failures = checks.check_deep(entries, checks.plain_rules(plain.rules), plain.events, inputs.deep_glitch(plain))
    broken = [(r, ci) for r, ci, outcome, _, _ in entries if outcome.startswith("Violated")]
    sample = checks.oracle_sample(entries, seed, DEEP_ORACLE_SAMPLE, must=broken)
    for rule_index, ci, outcome, witness, decided in sample:
        want = tuple(program.oracle_state_decision(rules[rule_index], events, ci, end))
        if (outcome, witness, decided) != want:
            failures.append(f"rule {rule_index} cause {ci}: {(outcome, witness, decided)} != oracle {want}")
    log(f"deep_history: oracle on {len(sample)} sampled obligations ({len(broken)} violated) "
        f"in {perf_counter() - start:.1f} s")
    return failures


def check_children(workload: str, seed: int, plain, children: List[dict]):
    """Tally the rounds of the rounds children and check their verdicts.

    Children that ran any good round must agree on the verdicts.  If those
    verdicts fail the oracle check, every round failed.
    """
    entries = next((c["entries"] for c in children if c["entries"] is not None), None)
    for child in children:
        if child["entries"] is not None and child["entries"] != entries:
            for r in child["rounds"]:
                r["failures"].append("the verdicts differ from another process's")
    ok, failures = tally([r for child in children for r in child["rounds"]])
    if entries is not None:
        wrong = check_inproc(workload, seed, plain, entries)
        if wrong:
            ok, failures = [], failures + wrong
    return ok, failures


def inproc_untraced(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Rounds spread over ROUND_PROCESSES fresh processes, one after another.

    A process's memory layout makes it a few percent faster or slower for its
    whole life; pooling the rounds of several processes evens that out.
    """
    import inputs

    setup = inproc_setup_samples(workload, seed, tmp)
    plain = inputs.generate(workload, seed)
    children = [inproc_rounds(workload, seed, seconds / ROUND_PROCESSES, False, tmp) for _ in range(ROUND_PROCESSES)]
    rounds = [r for child in children for r in child["rounds"]]
    events = len(plain.events)
    for i, r in enumerate(rounds, 1):
        if r["failures"]:
            log(f"{workload} round {i}: FAILED")
            continue
        r["norm_s"] = speed.normalised(r["wall_s"], r["passes_s"], r["count"])
        log(f"{workload} round {i}: {events} events in {r['wall_s']:.3f} s "
            f"(normalised {r['norm_s']:.3f} s), first alarm {r['first_alarm_s'][0]:.3f} s")
    ok, failures = check_children(workload, seed, plain, children)
    metrics = {}
    if ok:
        metrics = {
            "setup_s": median(setup),
            "events_per_s": median([events / r["norm_s"] for r in ok]),
            "peak_rss_mb": median([c["rss_mb"] for c in children if "rss_mb" in c]),
            "first_alarm_s": median([speed.normalised(*r["first_alarm_s"]) for r in ok]),
        }
    return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": metrics}


def inproc_traced(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    import checks
    import inputs

    layers = setup_spans(workload, seed, tmp)
    plain = inputs.generate(workload, seed)
    result = inproc_rounds(workload, seed, seconds, True, tmp)
    rounds = result["rounds"]
    ok, failures = check_children(workload, seed, plain, [result])
    untraced = [r["wall_s"] for r in ok if not r["traced"]]
    traced = sorted((r for r in ok if r["traced"]), key=lambda r: r["wall_s"])
    if not (traced and untraced):
        return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": {}}
    mid = traced[len(traced) // 2]["self_s"]
    write_spans(workload, seed, result["spans"])
    verdicts = [
        (plain.events[ci][0], decided, outcome)
        for (_, ci, outcome, _, decided), n in result["entries"].items() for _ in range(n)
    ]
    checked = mid["monitor.ingest"] + mid["monitor.finalize"]
    metrics = {name: 0 for name in LAYER_UNITS}  # the simulator and wire are not called here
    metrics.update({
        "cli.import_s": layers["cli.import"],
        "station.build_catalog_s": layers["station.build_catalog"],
        "monitor.compile_s": layers["monitor.compile"],
        "monitor.check_s": checked,
        "trace.overhead_s": median([r["wall_s"] for r in traced]) - median(untraced),
        "trace.unattributed_share": mid["round"] / (mid["round"] + checked),
        **checks.monitor_counts(checks.plain_rules(plain.rules), plain.events, verdicts),
    })
    return {"attempted": len(rounds), "failed": len(rounds) - len(ok), "failures": failures, "metrics": metrics}


# -- output ------------------------------------------------------------------------


def write_spans(workload: str, seed: int, rows) -> None:
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fp:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"], "rows": rows}, fp)


def src_lines() -> Dict[str, int]:
    out = {}
    for module in SRC_MODULES:
        path = ROOT / "src" / "capstation" / (module.replace(".", "/") + ".py")
        out[f"src_lines.{module}"] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    out["src_lines.total"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        if workload == "station_pipe":
            result = (station_traced if trace else station_untraced)(seed, seconds, tmp)
        else:
            result = (inproc_traced if trace else inproc_untraced)(workload, seed, seconds, tmp)
    except ProgramFailed as exc:
        result = {"attempted": 1, "failed": 1, "failures": [str(exc)], "metrics": {}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    if trace:
        result["metrics"].update(src_lines())
    for name, value in result["metrics"].items():
        log(f"metric {workload} {name} {value:.6g} {units[name]}")
    log(f"ops {workload} attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        log(f"CHECK FAILED {workload}: {failure}")
    correct = not result["failures"] and set(result["metrics"]) == set(units)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="capstation's benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, help="one run of one workload (default: every workload, both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: capstation's sources are missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    runs = [(args.workload, bool(args.trace))] if args.workload else [(w, t) for w in WORKLOADS for t in (False, True)]
    results = [run_one(workload, args.seed, args.seconds, trace) for workload, trace in runs]
    if args.workload:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results), "runs": len(results)}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
