"""Smoke test: the fast demos run to completion against the library source.

Demos 01-05 take about 7 s together; demo 06 (the full benchmark matrix,
about 15 s) is left out to keep the suite fast.  Both times: 2 cores,
Python 3.11, numpy 2.4.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_fast_demos_exit_cleanly(tmp_path):
    assert len(FAST_DEMOS) == 5
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for demo in FAST_DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
