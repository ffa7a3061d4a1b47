"""Smoke test: every demo runs to completion against the library source.

All six take about 3 s together, demo 06 (the full benchmark matrix) about
1 s of it (2 cores, Python 3.11, numpy 2.4).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*_*.py"))


def test_fast_demos_exit_cleanly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
