"""Segment-by-segment equivalence of the baseline matchers against recorded results.

``data/baselines_golden.json`` holds, for every segment of
``synth_corpus(3, 3, seed=1)`` rectified by ``rectify`` with each of ED, CD,
HA and WD, the ``window_start_index``, the candidate index of each snapped
point, the ``RectifiedSet.loss`` (``float.hex``) and, for WD, the cost of
the balanced transport plan between the same points and candidates
(``float.hex``).  It was recorded with the per-window matchers of git commit
91544aa (a distance matrix rebuilt for every CD and HA window, a dense WD
constraint matrix).  Back then WD snapped each point to the candidate that
receives its largest share of the balanced transport plan.  WD now snaps by
assignment and the library no longer solves the transport LP, so the WD
entries are rebuilt from this module's LP oracle, :func:`transport_plan`,
which solves the same plan: its argmax candidates, the points' summed
distance to them, and the transport cost.  ED, CD and HA still go through
``rectify``.  Running this module as a script prints the same record:

    PYTHONPATH=src python tests/test_baselines_golden.py OUT.json

(with no argument the record goes to stdout; the script never writes the
committed file, which must not be re-recorded).  The test requires identical
indices and losses and transport costs within 1e-12 relative.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

import spotalign.pipeline as pipeline
from spotalign import synth_corpus
from spotalign.geo import project_points
from spotalign.matchers import BASELINE_METHODS, WD
from spotalign.roads import sample_candidates

GOLDEN = Path(__file__).resolve().parent / "data" / "baselines_golden.json"
CORPUS = {"n_straight": 3, "n_curve": 3, "seed": 1}


def transport_plan(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Oracle: the balanced transport LP, mass 1/M per point against 1/K per
    candidate.  Returns the (M, K) plan and its cost."""
    m, k = cost.shape
    # transport variable i*k + j enters the marginal of point i (row i) and
    # of candidate j (row m + j)
    rows = (np.column_stack(np.divmod(np.arange(m * k), k)) + (0, m)).ravel()
    marginals = scipy.sparse.csc_array(
        (np.ones(2 * m * k), rows, np.arange(0, 2 * m * k + 1, 2)), shape=(m + k, m * k)
    )
    # drop one redundant constraint to keep the system full-rank
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(k - 1, 1.0 / k)])
    res = linprog(cost.ravel(), A_eq=marginals[:-1], b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.x.reshape(m, k), float(res.fun)


def balanced_plan(segment, collected) -> dict:
    """WD's entry from :func:`transport_plan`: each point's largest-share candidate, as recorded."""
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    plan, cost = transport_plan(np.hypot(*(pts[:, None] - cands.xy()[None, :]).transpose(2, 0, 1)))
    idx = np.argmax(plan, axis=1).tolist()
    residual = float(np.hypot(*(pts - cands.xy()[idx]).T).sum())
    return {"window_start_index": 0, "loss": residual.hex(), "candidates": idx, "transport_cost": cost.hex()}


def record() -> dict:
    """Rectify the corpus with ED, CD and HA, recording what each call snapped, and add WD's plan."""
    calls = []
    original = pipeline.baseline_rectify

    def recording(pts, cands, method):
        snapped, start = original(pts, cands, method)
        cand = cands.xy()
        calls.append([int(np.flatnonzero((cand == row).all(axis=1))[0]) for row in snapped])
        return snapped, start

    pipeline.baseline_rectify = recording
    segments = []
    try:
        for segment, collected in synth_corpus(**CORPUS):
            for method in BASELINE_METHODS:
                if method == WD:
                    entry = balanced_plan(segment, collected)
                else:
                    out = pipeline.rectify(collected, segment, method)
                    entry = {"window_start_index": out.window_start_index, "loss": out.loss.hex(),
                             "candidates": calls.pop()}
                segments.append({"id": segment.id, "method": method, **entry})
    finally:
        pipeline.baseline_rectify = original
    return {"corpus": CORPUS, "segments": segments}


def test_baselines_match_recorded():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["corpus"] == CORPUS
    got = record()
    assert [(s["id"], s["method"]) for s in got["segments"]] == \
        [(s["id"], s["method"]) for s in golden["segments"]]
    for new, old in zip(got["segments"], golden["segments"]):
        where = f"{new['id']} {new['method']}"
        assert new["window_start_index"] == old["window_start_index"], where
        assert new["candidates"] == old["candidates"], where
        for key in ("loss", "transport_cost"):
            if key in old:
                a, b = float.fromhex(new[key]), float.fromhex(old[key])
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), f"{where} {key}"


if __name__ == "__main__":
    text = json.dumps(record(), indent=1) + "\n"
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
