"""Small-window equivalence of the solver against recorded results.

``data/solver_small_golden.json`` holds seeded single-window solves at
M = 2, 3, 4, 6 and 9, below the M >= 33 windows of ``solver_golden.json``:
for each M a clean window (collected = candidates plus 0.3 m noise), a
drifted and rotated one, and the drifted one with a single outlier.  Each
entry is the loss (``float.hex``), the sweep count and the ``converged``
flag.  Two failure cases record the exception instead: coincident points
(:class:`DegenerateGeometryError`) and a 1e160-scale window
(:class:`NumericalFailureError` and the iteration it names).  It was recorded
with the solver of git commit b49c2a9 (the (2, 2M) block sweep with unscaled
multipliers) by running this module as a script against that checkout:

    PYTHONPATH=src python tests/test_solver_small_golden.py OUT.json

(with no argument the record goes to stdout; the committed file is never
written by the script).  The test requires losses within 1e-9 relative,
identical sweep counts and flags, and the same exception type and iteration.
Cases solve at rho = 1.3 and tol_primal = 1e-4 m, the penalty growth and
residual tolerance the record was made at.

A re-record differs from the committed file in the last hex digits of most
losses: the file was recorded by an older sweep, and e594457's lean sweep
already rounds differently (its script run with b49c2a9's ``src`` rebuilds
the file exactly).  To show that a change leaves the solves alone, compare
a re-record at the change's parent with one at the change, never a
re-record with the committed file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spotalign.solver import DegenerateGeometryError, NumericalFailureError, SolverConfig, admm_solve

GOLDEN = Path(__file__).resolve().parent / "data" / "solver_small_golden.json"
SIZES = (2, 3, 4, 6, 9)
KINDS = ("clean", "drifted", "outlier")
RECORDED = SolverConfig(rho=1.3, tol_primal=1e-4)  # the settings the golden files were recorded at


def case_points(m: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (collected, window) pair, both (m, 2) and centered on the window."""
    rng = np.random.default_rng([m, KINDS.index(kind)])
    window = np.stack([np.arange(m) * 6.0, rng.normal(0.0, 0.5, m)], axis=1)
    window -= window.mean(axis=0)
    pts = window + rng.normal(0.0, 0.3, window.shape)
    if kind != "clean":
        c, s = math.cos(0.15), math.sin(0.15)
        pts = pts @ np.array([[c, s], [-s, c]]) + [4.0, -3.0]
    if kind == "outlier":
        pts[m // 2] += [12.0, -9.0]
    return pts, window


def failure_points(kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "coincident":
        return np.zeros((4, 2)), np.zeros((4, 2))
    rng = np.random.default_rng(160)
    return rng.uniform(-1, 1, (6, 2)) * 1e160, rng.uniform(-1, 1, (6, 2)) * 1e160


CASES = [(f"m{m}-{kind}", case_points, (m, kind)) for m in SIZES for kind in KINDS] + [
    (kind, failure_points, (kind,)) for kind in ("coincident", "overflow")
]


def solve(build, args) -> dict:
    pts, window = build(*args)
    try:
        result = admm_solve(pts, window, RECORDED)
    except (DegenerateGeometryError, NumericalFailureError) as exc:
        return {"error": type(exc).__name__, "iteration": getattr(exc, "iteration", None)}
    return {"loss": result.loss.hex(), "iterations": result.iterations,
            "converged": result.converged}


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
    if "error" in old:
        assert new == old
        return
    assert (new["iterations"], new["converged"]) == (old["iterations"], old["converged"])
    a, b = float.fromhex(new["loss"]), float.fromhex(old["loss"])
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


if __name__ == "__main__":
    text = json.dumps(record(), indent=1) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
