from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capstation.cli import cli_main
from capstation.scenarios import nominal_script
from capstation.wire import write_script


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "nominal.jsonl"
    write_script(str(path), nominal_script())
    return path


@pytest.fixture()
def fault_file(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text(
        json.dumps(
            [
                {
                    "fault": "latency-override",
                    "device": "Stack Ejector Extend",
                    "latency_ms": 350,
                    "transition": "activate",
                }
            ]
        )
    )
    return path


def test_nominal_simulate_then_monitor_exits_zero(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)]) == 0
    report = tmp_path / "report.json"
    code = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "all", "--report", str(report)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["violations"] == 0
    verdicts = json.loads(report.read_text())
    assert len(verdicts) == summary["verdicts"] > 0
    assert all(v["outcome"] == "Satisfied" for v in verdicts)


def test_fault_injection_exits_one(scenario_file, fault_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert (
        cli_main(
            [
                "simulate",
                "--scenario", str(scenario_file),
                "--faults", str(fault_file),
                "--out", str(trace),
            ]
        )
        == 0
    )
    report = tmp_path / "report.json"
    code = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "causality", "--report", str(report)]
    )
    assert code == 1
    outcomes = {v["outcome"] for v in json.loads(report.read_text()) if v["outcome"] != "Satisfied"}
    assert outcomes == {"ViolatedLate", "ViolatedMissing"}
    capsys.readouterr()


def test_monitoring_a_single_topology(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    assert cli_main(["monitor", "--trace", str(trace), "--topology", "avoidance"]) == 0
    capsys.readouterr()


def test_model_dump_contains_the_documented_causality_edge(tmp_path, capsys, golden_dir):
    out = tmp_path / "causality.json"
    code = cli_main(
        ["model", "dump", "--topology", "causality", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    edges = json.loads(out.read_text())
    golden = json.loads((golden_dir / "causality_edge.json").read_text())
    assert golden in edges


def test_model_dump_whole_catalog(capsys):
    assert cli_main(["model", "dump"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert set(dump["devices"]) >= {"Stack Ejector", "Vacuum Grip", "Stack Empty"}


def test_model_dump_dot_output(capsys):
    assert cli_main(["model", "dump", "--topology", "causality", "--format", "dot"]) == 0
    assert "digraph topology {" in capsys.readouterr().out


def test_dot_without_topology_is_a_usage_error(capsys):
    assert cli_main(["model", "dump", "--format", "dot"]) == 2
    capsys.readouterr()


_DIGITS = "1" * 5000  # more than int() converts from a decimal string by default
# a long valid script, then a bad line: a file is checked whole before any event is written
_LONG_SCRIPT = "".join(
    f'{{"time_ms": {100 * i}, "actuator": "Loader Pickup", "signal": "{("High", "Low")[i % 2]}"}}\n'
    for i in range(5000)
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json\n", "line 1: "),
        (
            '{"time_ms": 0, "actuator": "Loader Pickup", "signal": "High"}\n'
            '{"time_ms": 10, "actuator": "", "signal": "Low"}\n',
            "line 2.actuator: expected a non-empty string",
        ),
        (
            '{"time_ms": 0, "actuator": 7, "signal": "High"}\n',
            "line 1.actuator: expected a non-empty string",
        ),
        (
            '{"time_ms": 500, "actuator": "Loader Pickup", "signal": "High"}\n'
            '{"time_ms": 100, "actuator": "Loader Pickup", "signal": "Low"}\n',
            "line 2: time_ms 100 is earlier than the previous line's 500",
        ),
        (
            '{"time_ms": 0, "actuator": "Loader Pickup", "signal": "High"}\n'
            '{"time_ms": 10, "actuator": "Ghost", "signal": "High"}\n',
            "line 2.actuator: unknown actuator: Ghost",
        ),
        (
            '{"time_ms": 0, "actuator": "Stack Empty", "signal": "High"}\n',
            "line 1.actuator: unknown actuator: Stack Empty",
        ),
        (
            '{"time_ms": 0, "actuator": "Loader Pickup", "signal": ["High"]}\n',
            "line 1.signal: signal must be High or Low",
        ),
        (
            '{"time_ms": 0, "actuator": "Loader Pickup", "signal": {}}\n',
            "line 1.signal: signal must be High or Low",
        ),
        (
            '{"time_ms": 0, "actuator": "Loader Pickup", "signal": "High"}\n\n'
            f'{{"time_ms": {_DIGITS}, "actuator": "Loader Pickup", "signal": "Low"}}\n',
            "line 3: Exceeds the limit (",
        ),
        (_LONG_SCRIPT + "{not json\n", "line 5001: "),
    ],
    ids=[
        "bad-json",
        "empty-actuator",
        "non-string-actuator",
        "time-goes-back",
        "unknown-actuator",
        "sensor-as-actuator",
        "list-signal",
        "object-signal",
        "too-many-digits",
        "bad-line-after-5000",
    ],
)
def test_malformed_scenario_is_an_input_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    assert cli_main(["simulate", "--scenario", str(bad), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_missing_scenario_file_is_an_input_error(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = cli_main(
        ["simulate", "--scenario", str(tmp_path / "absent.jsonl"), "--out", str(trace)]
    )
    assert code == 2
    capsys.readouterr()


def test_shuffled_trace_is_an_input_error(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    lines = trace.read_text().strip().splitlines()
    trace.write_text("\n".join(reversed(lines)) + "\n")
    assert cli_main(["monitor", "--trace", str(trace), "--topology", "all"]) == 2
    capsys.readouterr()


_GOOD_TRACE_LINE = (
    '{"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 0, '
    '"state": {"type": "Obstructed", "signal": "Low"}}\n'
)


@pytest.mark.parametrize(
    "line, message",
    [
        (
            '{"type": "Mystery", "component": "Stack Empty", "timepoint": 5, '
            '"state": {"type": "Passive", "signal": "Low"}}\n',
            "line 2: unknown type tag: 'Mystery'",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Ghost", "timepoint": 5, '
            '"state": {"type": "Passive", "signal": "Low"}}\n',
            "line 2.component: unknown device: Ghost",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 5, '
            '"state": {"type": "Bogus", "signal": "Low"}}\n',
            "line 2.state: unknown type tag: 'Bogus'",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 5, '
            '"state": {"type": "Gripped", "signal": "High"}}\n',
            "line 2.state: Stack Empty cannot be Gripped/High",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Loader", "timepoint": 5, '
            '"state": {"type": "Active", "signal": "High"}}\n',
            "line 2.state: Loader cannot be Active/High; it is a part and has no states",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 5, '
            '"state": {"type": "Obstructed", "signal": ["High"]}}\n',
            "line 2.state: signal must be High or Low, got ['High']",
        ),
        (
            '{"type": "PhysicalEvent", "component": "Stack Empty", "timepoint": 5, '
            '"state": {"type": "Obstructed", "signal": {}}}\n',
            "line 2.state: signal must be High or Low, got {}",
        ),
        # the first line's text around the time, so the reader matches it before json.loads
        (
            _GOOD_TRACE_LINE.replace('"timepoint": 0', f'"timepoint": {_DIGITS}'),
            "line 2: Exceeds the limit (",
        ),
    ],
    ids=[
        "unknown-event-type", "unknown-device", "unknown-state-type", "unmapped-state",
        "part-state", "list-signal", "object-signal", "too-many-digits",
    ],
)
def test_malformed_trace_is_a_located_input_error(tmp_path, capsys, line, message):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(_GOOD_TRACE_LINE + line)
    assert cli_main(["monitor", "--trace", str(trace), "--topology", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_option_is_a_usage_error(capsys):
    assert cli_main(["monitor", "--topology", "all"]) == 2
    capsys.readouterr()


def test_check_spatial_sensors_only_is_clean(capsys):
    assert cli_main(["check-spatial"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overlaps"] == 0


def test_check_spatial_all_reports_envelope_sweeps(capsys):
    assert cli_main(["check-spatial", "--all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["overlaps"] > 0
    pairs = {
        frozenset((p["device_a"], p["device_b"]))
        for p in payload["pairs"]
        if p["overlap"]
    }
    assert frozenset(("Stack Ejector", "Stack Ejector Extended")) in pairs


def test_check_spatial_device_subset(capsys):
    code = cli_main(
        ["check-spatial", "--devices", "Stack Ejector Extended", "Stack Ejector Retracted"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == 1


def test_piped_simulate_monitor_via_stdout(scenario_file, tmp_path, capsys, monkeypatch):
    import io
    import sys

    assert cli_main(["simulate", "--scenario", str(scenario_file), "--out", "-"]) == 0
    trace_text = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(trace_text))
    assert cli_main(["monitor", "--trace", "-", "--topology", "all"]) == 0
    capsys.readouterr()


def test_monitor_state_semantics_flag(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    # the avoidance edge reads differently under the state semantics: the
    # pickup solenoid is not Passive for the whole window
    code = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "avoidance", "--semantics", "state"]
    )
    assert code == 1
    capsys.readouterr()


def test_monitor_sequence_unit_flag(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    ok = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "process-sequence",
         "--sequence-unit", "seconds"]
    )
    raw_ms = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "process-sequence",
         "--sequence-unit", "milliseconds"]
    )
    assert (ok, raw_ms) == (0, 1)
    capsys.readouterr()


def test_monitor_tolerance_widens_correlations(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    report = tmp_path / "report.json"
    code = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "process-sequence",
         "--tolerance-ms", "150", "--report", str(report)]
    )
    assert code == 0
    windows = {tuple(v["window_ms"]) for v in json.loads(report.read_text())}
    assert windows == {(2850, 3150)}
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, golden",
    [
        ([], "model_dump.json"),
        (["--topology", "all", "--format", "json"], "model_dump_all.json"),
        (["--topology", "all", "--format", "dot"], "model_dump_all.dot"),
    ],
    ids=["catalog", "all-json", "all-dot"],
)
def test_model_dump_matches_its_golden_bytes(capsys, golden_dir, argv, golden):
    assert cli_main(["model", "dump", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == (golden_dir / golden).read_text()
    assert captured.err == ""


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--scenario", str(SCENARIOS / "nominal.jsonl")], "simulate_nominal.jsonl"),
        (["--scenario", str(SCENARIOS / "two_cycles.jsonl")], "simulate_two_cycles.jsonl"),
        (
            [
                "--scenario", str(SCENARIOS / "nominal.jsonl"),
                "--faults", str(SCENARIOS / "faults_late_extension.json"),
            ],
            "simulate_nominal_late_extension.jsonl",
        ),
    ],
    ids=["nominal", "two-cycles", "late-extension"],
)
def test_simulate_matches_its_golden_bytes(capsys, golden_dir, argv, golden):
    assert cli_main(["simulate", *argv, "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (golden_dir / golden).read_text()
    assert captured.err == ""


def test_simulate_seed_changes_nothing_without_jitter(capsys):
    # the CLI's latency table has no jitter, so the seed draws nothing
    traces = []
    for seed in ("0", "12345"):
        argv = ["simulate", "--scenario", str(SCENARIOS / "two_cycles.jsonl"), "--seed", seed]
        assert cli_main([*argv, "--out", "-"]) == 0
        traces.append(capsys.readouterr().out)
    assert traces[0] == traces[1] != ""


def test_model_dump_all_topologies_dot(capsys):
    assert cli_main(["model", "dump", "--topology", "all", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph topology {") == 3


def test_simulate_reads_scenario_from_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys

    from capstation.wire import script_to_lines

    monkeypatch.setattr(sys, "stdin", io.StringIO(script_to_lines(nominal_script())))
    trace = tmp_path / "trace.jsonl"
    assert cli_main(["simulate", "--scenario", "-", "--out", str(trace)]) == 0
    assert len(trace.read_text().splitlines()) == 29
    capsys.readouterr()


def test_simulate_reads_faults_from_stdin(capsys, golden_dir, monkeypatch):
    faults = (SCENARIOS / "faults_late_extension.json").read_text(encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(faults))
    argv = ["--scenario", str(SCENARIOS / "nominal.jsonl"), "--faults", "-", "--out", "-"]
    assert cli_main(["simulate", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == (golden_dir / "simulate_nominal_late_extension.jsonl").read_text()
    assert captured.err == ""


def test_scenario_and_faults_cannot_both_read_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[]\n"))
    out = tmp_path / "trace.jsonl"
    assert cli_main(["simulate", "--scenario", "-", "--faults", "-", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulate: --scenario and --faults cannot both read stdin (-)\n"
    assert sys.stdin.tell() == 0 and not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_script_fifo_gives_the_trace_of_the_script_file(tmp_path, capsys, golden_dir):
    # a FIFO can be read only once, so it is read whole, not checked and reread
    script = SCENARIOS / "two_cycles.jsonl"
    fifo = tmp_path / "script.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(script.read_bytes()), daemon=True)
    writer.start()
    assert cli_main(["simulate", "--scenario", str(fifo), "--out", "-"]) == 0
    writer.join(timeout=60)
    from_fifo = capsys.readouterr().out
    assert cli_main(["simulate", "--scenario", str(script), "--out", "-"]) == 0
    assert from_fifo == capsys.readouterr().out
    assert from_fifo == (golden_dir / "simulate_two_cycles.jsonl").read_text()


def _has_vmhwm() -> bool:
    try:
        return "VmHWM:" in pathlib.Path("/proc/self/status").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_simulate_memory_stays_flat_as_the_script_grows():
    # 1x and 5x the benchmark's 1,200 cycles: the peak may grow by 5 % at most
    tool = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "simulate_memory.py"
    run = subprocess.run(
        [sys.executable, str(tool), "1200", "6000"], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize(
    "fault, message",
    [
        (
            {"fault": "latency-override", "device": "Stack Ejector Extend", "latency_ms": -5},
            "faults[0].latency_ms",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Ejector Extend", "state": "Obstructed"},
            "faults[0]: stuck-sensor fault on Stack Ejector Extend: the device is not a sensor "
            "(Actuator)",
        ),
        ({"fault": "drop-events", "device": ""}, "faults[0].device: expected a non-empty string"),
        (
            {"fault": "latency-override", "device": "Stack Ejector Extend", "latency_ms": 300,
             "transition": "bogus"},
            "faults[0].transition: must be activate or deactivate, got 'bogus'",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Empty", "state": "Active"},
            "faults[0]: stuck-sensor fault on Stack Empty: state 'Active' is not mapped",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Empty", "state": []},
            "faults[0].state: unknown state []",
        ),
        ({"fault": "drop-events", "device": "Ghost"}, "faults[0].device: unknown device: Ghost"),
        (
            {"fault": "latency-override", "device": "Stack Empty", "latency_ms": 300},
            "faults[0]: no motion latency for Stack Empty / None",
        ),
        (  # as text: json.dumps cannot write it either
            '[{"fault": "latency-override", "device": "Stack Ejector Extend", "note": "1111",\n'
            f'  "latency_ms": {_DIGITS}}}]\n',
            "error: line 2: Exceeds the limit (",
        ),
    ],
    ids=[
        "negative-latency", "stuck-actuator", "empty-device", "bogus-transition",
        "unmapped-stuck-state", "non-string-stuck-state", "unknown-device", "sensor-latency",
        "too-many-digits",
    ],
)
def test_out_of_range_fault_is_an_input_error(scenario_file, tmp_path, capsys, fault, message):
    faults = tmp_path / "faults.json"
    faults.write_text(fault if isinstance(fault, str) else json.dumps([fault]))
    code = cli_main(
        ["simulate", "--scenario", str(scenario_file), "--faults", str(faults), "--out", "-"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("semantics", ["event", "state"])
@pytest.mark.parametrize("faulty", [False, True], ids=["no-fault", "late-extension"])
@pytest.mark.parametrize("scenario", ["nominal", "two_cycles"])
def test_monitor_pipe_matches_its_golden_bytes(
    tmp_path, capsys, golden_dir, scenario, faulty, semantics
):
    pipe = f"{scenario}{'_late_extension' if faulty else ''}_{semantics}"
    faults = ["--faults", str(SCENARIOS / "faults_late_extension.json")] if faulty else []
    trace = tmp_path / "trace.jsonl"
    simulate = ["simulate", "--scenario", str(SCENARIOS / f"{scenario}.jsonl"), *faults]
    assert cli_main([*simulate, "--out", str(trace)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = cli_main(
        ["monitor", "--trace", str(trace), "--topology", "all", "--semantics", semantics,
         "--report", str(report)]
    )
    captured = capsys.readouterr()
    golden = golden_dir / "monitor"
    assert f"{code}\n" == (golden / f"{pipe}.exit").read_text()
    assert captured.out == (golden / f"{pipe}.stdout").read_text()
    assert captured.err == (golden / f"{pipe}.stderr").read_text()
    assert report.read_bytes() == (golden / f"{pipe}.report.json").read_bytes()


def _late_extension_lines(catalog, faulty_trace):
    """The late-extension trace's lines, and how many of them run up to the
    first event after the first violation is decided."""
    import io

    from capstation.monitor import check_trace
    from capstation.wire import write_trace

    buf = io.StringIO()
    write_trace(buf, faulty_trace)
    first = next(v for v in check_trace(catalog, "all", faulty_trace) if v.outcome.is_violation)
    cut = next(i for i, e in enumerate(faulty_trace) if e.timepoint.t > first.decided_at)
    return buf.getvalue().splitlines(keepends=True), cut + 1


def test_violation_prints_while_the_trace_is_still_open(catalog, faulty_trace, golden_dir):
    import os
    import queue
    import subprocess
    import sys
    import threading

    lines, head = _late_extension_lines(catalog, faulty_trace)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "capstation", "monitor", "--trace", "-", "--topology", "all"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    err_lines: "queue.Queue[bytes]" = queue.Queue()

    def read_stderr():
        for line in proc.stderr:
            err_lines.put(line)

    reader = threading.Thread(target=read_stderr, daemon=True)
    reader.start()
    try:
        proc.stdin.write("".join(lines[:head]).encode())
        proc.stdin.flush()
        first = err_lines.get(timeout=60)
        assert first.startswith(b"violation: ")
        assert proc.poll() is None  # still waiting for the rest of the trace
        proc.stdin.write("".join(lines[head:]).encode())
        proc.stdin.close()
        out = proc.stdout.read()
        assert proc.wait(timeout=60) == 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    reader.join(timeout=60)
    err = first + b"".join(err_lines.get_nowait() for _ in range(err_lines.qsize()))
    assert err == (golden_dir / "monitor" / "nominal_late_extension_event.stderr").read_bytes()
    assert json.loads(out) == {"events": 29, "verdicts": 12, "violations": 2}


def test_error_mid_stream_keeps_the_alarms_and_removes_the_report(
    catalog, faulty_trace, tmp_path, capsys
):
    lines, head = _late_extension_lines(catalog, faulty_trace)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(lines[:head]) + "{not json\n")
    report = tmp_path / "report.json"
    code = cli_main(["monitor", "--trace", str(trace), "--topology", "all", "--report", str(report)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    alarms, error = captured.err.splitlines()[:-1], captured.err.splitlines()[-1]
    assert alarms and all(line.startswith("violation: ") for line in alarms)
    assert error.startswith(f"error: line {head + 1}: ")
    assert not report.exists()


def test_a_failed_run_keeps_a_report_file_it_did_not_create(
    catalog, faulty_trace, tmp_path, capsys
):
    lines, head = _late_extension_lines(catalog, faulty_trace)
    broken = tmp_path / "trace.jsonl"
    broken.write_text("".join(lines[:head]) + "{not json\n")
    report = tmp_path / "report.json"
    report.write_text("an earlier report\n")
    argv = ["monitor", "--topology", "all", "--report", str(report), "--trace"]
    assert cli_main(argv + [str(tmp_path / "missing.jsonl")]) == 2
    assert report.read_text() == "an earlier report\n"
    assert cli_main(argv + [str(broken)]) == 2
    assert report.read_text().startswith("[\n  {")
    assert "No such file" in capsys.readouterr().err


def test_report_onto_the_trace_is_an_input_error(scenario_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli_main(["simulate", "--scenario", str(scenario_file), "--out", str(trace)])
    before = trace.read_bytes()
    code = cli_main(["monitor", "--trace", str(trace), "--topology", "all", "--report", str(trace)])
    assert code == 2
    assert "is the trace being read" in capsys.readouterr().err
    assert trace.read_bytes() == before


_DEEP = "[" * 5000 + "\n"  # nested past the interpreter's recursion limit


def _input_argv(where: str, path: str, report: str):
    """The CLI call that reads `path` as a scenario, a fault file or a trace."""
    nominal = str(SCENARIOS / "nominal.jsonl")
    return {
        "scenario": ["simulate", "--scenario", path, "--out", "-"],
        "faults": ["simulate", "--scenario", nominal, "--faults", path, "--out", "-"],
        "trace": ["monitor", "--trace", path, "--topology", "all", "--report", report],
    }[where]


@pytest.mark.parametrize("where", ["scenario", "faults", "trace"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, where):
    deep, report = tmp_path / "deep.json", tmp_path / "report.json"
    deep.write_text(_DEEP)
    assert cli_main(_input_argv(where, str(deep), str(report))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " if where == "faults" else "error: line 1: ")
    assert len(captured.err.splitlines()) == 1  # no traceback
    assert not report.exists()


_JSONISH = st.text(alphabet='[]{}",:-0123456789 \n\\aeHLPt', max_size=200).map(str.encode)


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(st.binary(max_size=200), _JSONISH),
    where=st.sampled_from(["scenario", "faults", "trace"]),
)
@example(data=_DEEP.encode(), where="scenario")
@example(data=_DEEP.encode(), where="faults")
@example(data=_DEEP.encode(), where="trace")
def test_any_input_bytes_exit_0_1_or_2(data, where):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(_input_argv(where, str(path), str(pathlib.Path(tmp) / "report.json")))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
