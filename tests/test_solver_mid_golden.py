"""Mid-size-window equivalence of the solver against recorded results.

``data/solver_mid_golden.json`` holds seeded single-window solves at
M = 12, 18, 24 and 30, the window sizes of short, nearly full streets that
lie between the M <= 9 cases of ``solver_small_golden.json`` and the
M >= 33 windows of ``solver_golden.json``.  For each M there is a clean
window, a drifted and rotated one, and the drifted one with a single
outlier, built exactly as in ``test_solver_small_golden.py``.  Each entry is
the loss (``float.hex``), the sweep count and the ``converged`` flag.  It
was recorded with the solver of git commit 0c6935b (closed-form coupling and
increment steps, one Python-scalar rotation per A-step) by running this
module as a script against that checkout:

    PYTHONPATH=src python tests/test_solver_mid_golden.py OUT.json

(with no argument the record goes to stdout; the committed file is never
written by the script).  The test requires losses within 1e-9 relative and
identical sweep counts and flags.

A re-record differs from the committed file in the last hex digits of most
losses: the file was recorded by an older sweep, and 8c00a28's leaner sweep
already rounds differently (its script run with 0c6935b's ``src`` rebuilds
the file exactly).  To show that a change leaves the solves alone, compare
a re-record at the change's parent with one at the change, never a
re-record with the committed file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from test_solver_small_golden import KINDS, case_points, solve

GOLDEN = Path(__file__).resolve().parent / "data" / "solver_mid_golden.json"
SIZES = (12, 18, 24, 30)

CASES = [(f"m{m}-{kind}", case_points, (m, kind)) for m in SIZES for kind in KINDS]


def record() -> dict:
    return {name: solve(build, args) for name, build, args in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_recorded_names(golden):
    assert list(golden) == [name for name, *_ in CASES]


@pytest.mark.parametrize("name,build,args", CASES, ids=[name for name, *_ in CASES])
def test_window_solve_matches_recorded(golden, name, build, args):
    old, new = golden[name], solve(build, args)
    assert (new["iterations"], new["converged"]) == (old["iterations"], old["converged"])
    a, b = float.fromhex(new["loss"]), float.fromhex(old["loss"])
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


if __name__ == "__main__":
    text = json.dumps(record(), indent=1) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
