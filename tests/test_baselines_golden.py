"""Segment-by-segment equivalence of the baseline matchers against recorded results.

``data/baselines_golden.json`` holds, for every segment of
``synth_corpus(3, 3, seed=1)`` rectified by ``rectify`` with each of ED, CD,
HA and WD, the ``window_start_index``, the candidate index of each snapped
point, the ``RectifiedSet.loss`` (``float.hex``) and, for WD, the transport
cost that ``wd_match`` reports for the same points (``float.hex``).  It was
recorded with the per-window matchers of git commit 91544aa (a distance matrix
rebuilt for every CD and HA window, a dense WD constraint matrix).  Back then
WD snapped each point to the candidate that receives its largest share of
the balanced transport plan; WD now snaps by assignment, so the WD entries
are rebuilt from ``wd_match``'s plan, the same plan: its argmax candidates,
the points' summed distance to them, and the transport cost.  ED, CD and HA
still go through ``rectify``.  Running this module as a script prints the
same record:

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

import spotalign.pipeline as pipeline
from spotalign import synth_corpus
from spotalign.geo import project_points
from spotalign.matchers import BASELINE_METHODS, WD, wd_match
from spotalign.roads import sample_candidates

GOLDEN = Path(__file__).resolve().parent / "data" / "baselines_golden.json"
CORPUS = {"n_straight": 3, "n_curve": 3, "seed": 1}


def balanced_plan(segment, collected) -> dict:
    """WD's entry from ``wd_match``: each point's largest-share candidate, as recorded."""
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    assignment, cost = wd_match(pts, cands.xy())
    idx = [j for _, j in assignment.pairs]
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
