from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _make_scenarios():
    spec = importlib.util.spec_from_file_location(
        "make_scenarios", ROOT / "scripts" / "make_scenarios.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["nominal.jsonl", "two_cycles.jsonl", "faults_late_extension.json"]
)
def test_shipped_scenario_files_match_their_generator(name):
    expected = _make_scenarios().scenario_files()[name]
    assert (ROOT / "scenarios" / name).read_text() == expected


def test_make_scenarios_writes_nothing_when_given_arguments(monkeypatch, capsys):
    written = []
    monkeypatch.setattr(pathlib.Path, "mkdir", lambda self, **kwargs: None)
    monkeypatch.setattr(pathlib.Path, "write_text", lambda self, text: written.append(self.name))
    module = _make_scenarios()
    with pytest.raises(SystemExit) as help_exit:
        module.main(["--help"])
    assert help_exit.value.code == 0
    assert "Regenerate the shipped scenario" in capsys.readouterr().out
    with pytest.raises(SystemExit) as bogus_exit:
        module.main(["--bogus"])
    assert bogus_exit.value.code == 2
    assert written == []
    module.main([])  # no arguments: the three files, through the patched write
    assert sorted(written) == ["faults_late_extension.json", "nominal.jsonl", "two_cycles.jsonl"]
