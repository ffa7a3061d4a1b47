"""Window recovery where window shape, not position, decides.

On a ``gap_case`` road the true window straddles a 100 m gap in the
candidate grid, so windows near it differ in shape.  Once the collected
points drift a spacing or more along the road, the window whose centroid is
nearest theirs is no longer the true one, and HA falls behind too; the
rank-1 alignment should still find it.  The same arm checks that the default
penalty schedule loses no window against rho = 1.3, the slower schedule it
replaced.  The seeds here were not used to choose the default.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from spotalign.geo import project_points
from spotalign.pipeline import rectify
from spotalign.roads import sample_candidates
from spotalign.solver import SolverConfig

from conftest import gap_case

SEEDS = (21, 22)
TRIALS = 12  # per seed and drift
SLOWER = SolverConfig(rho=1.3)


def centroid_window(pts: np.ndarray, cand_xy: np.ndarray) -> int:
    """Start of the window whose centroid is nearest the points' centroid."""
    m = len(pts)
    csum = np.cumsum(np.vstack([np.zeros(2), cand_xy]), axis=0)
    centroids = (csum[m:] - csum[:-m]) / m
    return int(np.argmin(np.hypot(*(centroids - pts.mean(axis=0)).T)))


def recovered(d: float) -> Counter:
    """Windows recovered at drift ``d``, per method, over every seed and trial."""
    hits = Counter()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(TRIALS):
            segment, collected, start = gap_case(rng, d)
            cands = sample_candidates(segment)
            pts = project_points(cands.frame, collected.points)
            hits["centroid"] += centroid_window(pts, cands.xy()) == start
            hits["ha"] += rectify(collected, segment, "ha", th=1.0).window_start_index == start
            hits["raa"] += rectify(collected, segment, "raa", th=1.0).window_start_index == start
            hits["raa-1.3"] += (rectify(collected, segment, "raa", th=1.0, cfg=SLOWER)
                                .window_start_index == start)
    return hits


@pytest.fixture(scope="module")
def hits():
    return {d: recovered(d) for d in (6.0, 9.0)}


def test_shape_decides_at_one_and_a_half_spacings(hits):
    got = hits[9.0]
    assert got["raa"] >= 0.9 * len(SEEDS) * TRIALS, got
    assert got["raa"] > got["ha"], got
    assert got["raa"] > got["centroid"], got


@pytest.mark.parametrize("d", [6.0, 9.0])
def test_default_schedule_recovers_no_fewer_than_rho_1_3(hits, d):
    assert hits[d]["raa"] >= hits[d]["raa-1.3"], hits[d]
