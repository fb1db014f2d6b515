"""Tests of the benchmark itself: tiny workloads pass their checks, and each
check rejects a planted wrong result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import program  # noqa: E402
import speed  # noqa: E402
from spans import NoSpans, Spans  # noqa: E402


# -- station_pipe ----------------------------------------------------------------


def _station(tmp_path, seed=3, cycles=12):
    spec = inputs.station_pipe(seed, inputs.read_script_lines(program.ROOT / "scenarios" / "two_cycles.jsonl"), cycles)
    script = tmp_path / "script.jsonl"
    script.write_text("".join(json.dumps(c) + "\n" for c in spec.commands))
    catalog = program.build_catalog()
    events, text, report, _ = program.station_replay(
        catalog, script, spec.stack_count, seed, tmp_path / "report.json", NoSpans()
    )
    rules = program.station_rules()
    expect = checks.station_expectation(rules, program.plain_events(events), spec)
    return catalog, spec, events, text, report, rules, expect


def test_tiny_station_pipe_passes_its_checks(tmp_path):
    _, spec, events, _, report, rules, expect = _station(tmp_path)
    assert checks.check_station_report(report, rules, expect) == []
    assert json.loads((tmp_path / "report.json").read_text()) == report
    assert checks.check_station_cli(0, 1, {"events": len(events), "verdicts": len(report), "violations": 1}, 1, expect) == []
    assert 1 <= spec.deviant_cycle < 12


def test_station_check_rejects_a_flipped_outcome(tmp_path):
    _, _, _, _, report, rules, expect = _station(tmp_path)
    report[5] = dict(report[5], outcome="ViolatedLate")
    assert checks.check_station_report(report, rules, expect)


def test_station_check_rejects_a_missing_verdict_and_a_stray_witness(tmp_path):
    _, _, _, _, report, rules, expect = _station(tmp_path)
    assert checks.check_station_report(report[1:], rules, expect)
    moved = dict(report[0], witness=dict(report[0]["witness"], timepoint=report[0]["window"][1] + 1))
    assert checks.check_station_report([moved] + report[1:], rules, expect)


def test_station_check_rejects_a_dropped_event(tmp_path):
    catalog, _, events, text, _, rules, expect = _station(tmp_path)
    lines = text.splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if '"Loader Dropped Off"' in line and "Obstructed" in line
                and json.loads(line)["timepoint"] > 0 and json.loads(line)["state"]["type"] == "Obstructed")
    trace = program.read_trace(io.StringIO("".join(lines[:drop] + lines[drop + 1:])), kinds=catalog.devices)
    verdicts = program.check_trace(catalog, "all", trace, program.MonitorConfig())
    report = [program.verdict_to_obj(v) for v in verdicts]
    assert checks.check_station_report(report, rules, expect)


def test_station_cli_check_rejects_a_wrong_exit_code_or_summary(tmp_path):
    _, _, events, _, report, _, expect = _station(tmp_path)
    summary = {"events": len(events), "verdicts": len(report), "violations": 1}
    assert checks.check_station_cli(0, 0, summary, 1, expect)
    assert checks.check_station_cli(0, 1, dict(summary, events=len(events) - 1), 1, expect)
    assert checks.check_station_cli(0, 1, summary, 0, expect)


# -- in-process workloads ------------------------------------------------------------


def _monitor(workload, plain, drop=None):
    graph, ids = program.build_graph(plain.devices, plain.rules)
    rules, _, monitor = program.compile_monitor(workload, graph, ids)
    events = program.build_events(plain.devices, plain.events, ids)
    fed = [e for i, e in enumerate(events) if i != drop]
    verdicts = []
    for event in fed:
        verdicts.extend(monitor.ingest(event))
    verdicts.extend(monitor.finalize(fed[-1].timepoint.t))
    return rules, events, fed, verdicts


def _flip(entries: Counter) -> Counter:
    flipped = Counter(entries)
    entry = sorted(entries, key=repr)[len(entries) // 2]
    flipped[entry] -= 1
    flipped[(entry[0], entry[1], "ViolatedLate" if entry[2] != "ViolatedLate" else "Satisfied", *entry[3:])] += 1
    return +flipped


def test_tiny_plant_rules_matches_the_oracle_and_the_check_rejects_a_flip():
    plain = inputs.plant_rules(4, n_events=1500, n_devices=10, n_rules=40)
    rules, events, _, verdicts = _monitor("plant_rules", plain)
    entries = program.monitor_entries(verdicts, events)
    oracle = program.oracle_entries(rules, events, events[-1].timepoint.t, False)
    assert checks.check_against_oracle(entries, oracle) == []
    assert any(e[2] == "ViolatedMissing" for e in entries), "the silent device leaves obligations unmet"
    assert checks.check_against_oracle(_flip(entries), oracle)


def test_plant_check_rejects_a_dropped_event():
    plain = inputs.plant_rules(4, n_events=1500, n_devices=10, n_rules=40)
    rules, events, fed, verdicts = _monitor("plant_rules", plain, drop=700)
    oracle = program.oracle_entries(rules, events, events[-1].timepoint.t, False)
    # index the monitor's verdicts against the full stream, as the benchmark does
    assert checks.check_against_oracle(program.monitor_entries(verdicts, events), oracle)


def test_plant_inputs_are_balanced_and_seeded():
    _, rules = inputs.plant_rule_set(9)
    assert Counter(r[0] for r in rules) == Counter(r[2] for r in rules)
    assert set(Counter(r[0] for r in rules).values()) == {inputs.PLANT_RULES // inputs.PLANT_DEVICES}
    assert inputs.plant_rules(9, n_events=500) == inputs.plant_rules(9, n_events=500)
    assert inputs.plant_rules(9, n_events=500) != inputs.plant_rules(10, n_events=500)


def _deep():
    plain = inputs.deep_history(5, n_events=20_000)
    rules, events, _, verdicts = _monitor("deep_history", plain)
    return plain, rules, events, program.monitor_entries(verdicts, events)


def test_tiny_deep_history_passes_its_checks():
    plain, rules, events, entries = _deep()
    prules = checks.plain_rules(plain.rules)
    assert checks.check_deep(entries, prules, plain.events, inputs.deep_glitch(plain)) == []
    assert sum(n for e, n in entries.items() if e[2].startswith("Violated")) > 0
    for rule, ci, outcome, witness, decided in checks.oracle_sample(entries, 5, 15):
        assert (outcome, witness, decided) == tuple(
            program.oracle_state_decision(rules[rule], events, ci, events[-1].timepoint.t)
        )


def test_deep_check_rejects_a_flip_and_a_dropped_glitch():
    plain, _, _, entries = _deep()
    prules = checks.plain_rules(plain.rules)
    assert checks.check_deep(_flip(entries), prules, plain.events, inputs.deep_glitch(plain))
    glitch = next(i for i, e in enumerate(plain.events) if e[0] == plain.glitch_ms and e[1] == inputs.T1)
    _, _, fed, verdicts = _monitor("deep_history", plain, drop=glitch)
    dropped = program.monitor_entries(verdicts, fed)
    kept = [e for i, e in enumerate(plain.events) if i != glitch]
    assert checks.check_deep(dropped, prules, kept, inputs.deep_glitch(plain))


# -- derived counts, spans and speed -------------------------------------------------


def test_monitor_counts_from_inputs_and_verdicts():
    rules = [{"window_ms": [-100, 50]}, {"window_ms": [0, 10]}]
    events = [(0, "a", "x", "High"), (40, "b", "x", "High"), (100, "a", "x", "High"), (250, "a", "x", "High")]
    verdicts = [(0, 100, "Satisfied"), (40, 100, "ViolatedMissing"), (100, 250, "Pending"), (100, 100, "Satisfied")]
    counts = checks.monitor_counts(rules, events, verdicts)
    assert counts["monitor.open_peak"] == 2  # after t=40: the causes at 0 and 40 wait until 100
    assert counts["monitor.lookback_peak"] == 2  # at t=100, the events at 0 and 40 are within 100 ms
    assert counts["monitor.match_ratio"] == 4 / 8
    assert counts["monitor.violations"] == 1


def test_self_times_subtract_direct_children():
    spans = Spans()
    spans.rows = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0]]
    assert spans.self_times() == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_normalised_removes_the_passes_and_rescales():
    assert speed.normalised(1.1, 0.1, 10) == (1.1 - 0.1) * speed.REFERENCE_S * 10 / 0.1
    assert speed.normalised(2.0, 10 * speed.REFERENCE_S, 10) == 2.0 - 10 * speed.REFERENCE_S
    assert speed.normalised(1.0, 0.0, 0) == 1.0


def test_benchmark_json_declares_what_run_py_reports():
    import run

    declared = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert declared["run_seconds"] == run.RUN_SECONDS


# -- failed operations ---------------------------------------------------------------


class _Rounds:
    """Stands in for speed.Budget: exactly n rounds."""

    def __init__(self, n):
        self.left = n

    def next(self):
        self.left -= 1
        return self.left >= 0


def test_a_crashed_pipe_round_is_a_failed_operation_and_fails_the_run(monkeypatch):
    import run

    class Station:
        expect = {"events": 100}

        def __init__(self, seed, tmp):
            self.calls = 0

        def setup_samples(self):
            return [0.2]

        def pipe_round(self, report):
            self.calls += 1
            if self.calls == 2:
                return {"wall_s": 0.1, "failures": ["monitor exited -9"]}
            return {"wall_s": 1.0, "norm_s": 1.0, "first_alarm_s": 0.5, "rss_mb": 50.0, "failures": []}

    monkeypatch.setattr(run, "Station", Station)
    monkeypatch.setattr(run.speed, "Budget", lambda seconds: _Rounds(3))
    result = run.run_one("station_pipe", 1, 1, False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert result["metrics"]["events_per_s"]["value"] == 100.0


def test_a_round_in_which_the_monitor_raises_is_a_failed_operation(monkeypatch, tmp_path):
    import inproc
    import run

    plain = inputs.plant_rules(4, n_events=1500, n_devices=10, n_rules=40)
    real = program.StreamMonitor
    made = []

    def monitor(*args, **kwargs):
        made.append(real(*args, **kwargs))
        if len(made) == 3:  # compile_monitor makes the first, each round one more
            made[-1].ingest = lambda event: 1 / 0
        return made[-1]

    monkeypatch.setattr(inputs, "generate", lambda workload, seed: plain)
    monkeypatch.setattr(program, "StreamMonitor", monitor)
    child = inproc.rounds("plant_rules", 4, 0, True, str(tmp_path / "entries.json"), str(tmp_path / "spans.json"))
    assert [bool(r["failures"]) for r in child["rounds"]] == [False, True]
    assert "ZeroDivisionError" in child["rounds"][1]["failures"][0]
    entries = json.loads((tmp_path / "entries.json").read_text())
    child["entries"] = Counter({tuple(row[:-1]): row[-1] for row in entries})
    ok, failures = run.check_children("plant_rules", 4, plain, [child])
    assert len(ok) == 1 and len(failures) == 1


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plant_rules", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench-runs").exists()
