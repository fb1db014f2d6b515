from __future__ import annotations

import json

import pytest

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
    ],
    ids=["bad-json", "empty-actuator", "non-string-actuator", "time-goes-back"],
)
def test_malformed_scenario_is_an_input_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    assert cli_main(["simulate", "--scenario", str(bad), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


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
    '"state": {"type": "Passive", "signal": "Low"}}\n'
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
    ],
    ids=["unknown-event-type", "unknown-device", "unknown-state-type"],
)
def test_malformed_trace_is_a_located_input_error(tmp_path, capsys, line, message):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(_GOOD_TRACE_LINE + line)
    assert cli_main(["monitor", "--trace", str(trace), "--topology", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize(
    "fault, message",
    [
        (
            {"fault": "latency-override", "device": "Stack Ejector Extend", "latency_ms": -5},
            "faults[0].latency_ms",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Ejector Extend", "state": "Obstructed"},
            "not a sensor",
        ),
        ({"fault": "drop-events", "device": ""}, "faults[0].device: expected a non-empty string"),
        (
            {"fault": "latency-override", "device": "Stack Ejector Extend", "latency_ms": 300,
             "transition": "bogus"},
            "faults[0].transition: must be activate or deactivate, got 'bogus'",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Empty", "state": "Active"},
            "stuck-sensor fault on Stack Empty: state 'Active' is not mapped",
        ),
        (
            {"fault": "stuck-sensor", "device": "Stack Empty", "state": []},
            "faults[0].state: unknown state []",
        ),
    ],
    ids=[
        "negative-latency", "stuck-actuator", "empty-device", "bogus-transition",
        "unmapped-stuck-state", "non-string-stuck-state",
    ],
)
def test_out_of_range_fault_is_an_input_error(scenario_file, tmp_path, capsys, fault, message):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([fault]))
    code = cli_main(
        ["simulate", "--scenario", str(scenario_file), "--faults", str(faults), "--out", "-"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
