"""Running a golden module as a script records to the path it is given, never to its data file."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = {
    "test_solver_golden.py": "solver_golden.json",
    "test_baselines_golden.py": "baselines_golden.json",
    "test_solver_small_golden.py": "solver_small_golden.json",
    "test_solver_mid_golden.py": "solver_mid_golden.json",
}


def run_script(script: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(TESTS / script), *args], check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}).stdout


@pytest.mark.parametrize("script", list(GOLDEN))
def test_script_records_to_the_given_path(tmp_path, script):
    data = TESTS / "data" / GOLDEN[script]
    before = data.read_bytes()
    out = tmp_path / "record.json"
    assert run_script(script, str(out)) == ""
    assert data.read_bytes() == before
    assert json.loads(out.read_text(encoding="utf-8")).keys() == json.loads(before).keys()


def test_script_without_a_path_records_to_stdout():
    data = TESTS / "data" / GOLDEN["test_solver_small_golden.py"]
    before = data.read_bytes()
    assert json.loads(run_script("test_solver_small_golden.py")).keys() == json.loads(before).keys()
    assert data.read_bytes() == before
