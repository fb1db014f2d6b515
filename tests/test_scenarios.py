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
