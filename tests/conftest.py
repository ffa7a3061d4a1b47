"""Shared builders for geometry-heavy tests.

Segments are constructed near the equator along the x axis unless stated
otherwise: there the local frame's longitude scale matches the latitude
scale to ~1e-15 relative, so arclengths survive the centroid reprojection
inside the library exactly enough for count assertions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from spotalign.geo import GeoPoint, LocalPoint, make_frame, project_points, to_geo, unproject_points
from spotalign.pipeline import CollectedSet
from spotalign.roads import RoadSegment, SpotType, sample_candidates
from spotalign.solver import SolverConfig, SolverResult, admm_solve


def straight_segment(
    length: float,
    spot_type: SpotType = SpotType.PARALLEL,
    seg_id: str = "seg",
    lat0: float = 0.0,
    lon0: float = 0.0,
    n_vertices: int = 2,
    intersections: tuple[int, ...] = (),
) -> RoadSegment:
    """East-west straight segment of the given arclength."""
    frame = make_frame(GeoPoint(lat0, lon0))
    xs = np.linspace(0.0, length, n_vertices)
    polyline = tuple(to_geo(frame, LocalPoint(float(x), 0.0)) for x in xs)
    return RoadSegment(
        id=seg_id,
        polyline=polyline,
        spot_type=spot_type,
        intersection_indices=frozenset(intersections),
    )


def gap_case(rng: np.random.Generator, d: float):
    """A window that straddles a 100 m candidate gap, drifted ``d`` m along the road.

    The road is 600 m with one flagged interior vertex (3..7 of 11), so its
    50 m clearance splits the candidate grid in two and windows differ in
    shape, not only in position.  The collected points are the true window
    of M in 12..24 candidates shifted by ``d`` along the road and 3 m across
    it (each sign drawn), plus uniform +-1.5 m jitter.  Returns the segment,
    the collected set and the true window's start index.
    """
    segment = straight_segment(600.0, n_vertices=11, intersections=(int(rng.integers(3, 8)),))
    cands = sample_candidates(segment)
    cand_xy = cands.xy()
    m = int(rng.integers(12, 25))
    left = int(np.argmax(np.diff(cands.arclengths) > 50.0)) + 1  # candidates before the gap
    start = int(rng.integers(max(0, left - m + 1), left))
    truth = cand_xy[start:start + m]
    shift = rng.choice([-1.0, 1.0], 2) * [d, 3.0]
    xy = truth + shift + rng.uniform(-1.5, 1.5, truth.shape)
    collected = CollectedSet(
        segment_id=segment.id,
        points=tuple(unproject_points(cands.frame, xy)),
        ground_truth=tuple(unproject_points(cands.frame, truth)),
    )
    return segment, collected, start


def exhaustive_search(segment: RoadSegment, collected: CollectedSet,
                      cfg: SolverConfig | None = None) -> list[SolverResult]:
    """Solve every candidate window in start order, abandoning none.

    Each window is centred as ``raa_rectify`` centres it, so a window that
    the race finishes has the same loss bit for bit.  The exhaustive winner
    is the first window of least loss.
    """
    cands = sample_candidates(segment)
    pts, cand_xy = project_points(cands.frame, collected.points), cands.xy()
    results = []
    for i in range(cands.window_count(len(pts))):
        window = cand_xy[i:i + len(pts)]
        center = window.mean(axis=0)
        results.append(admm_solve(pts - center, window - center, cfg))
    return results


def polyline_segment(
    local_xy,
    spot_type: SpotType = SpotType.PARALLEL,
    seg_id: str = "seg",
    lat0: float = 0.0,
    lon0: float = 0.0,
    intersections: tuple[int, ...] = (),
) -> RoadSegment:
    """Segment from explicit local-meter vertices anchored at (lat0, lon0)."""
    frame = make_frame(GeoPoint(lat0, lon0))
    polyline = tuple(unproject_points(frame, np.asarray(local_xy, dtype=float)))
    return RoadSegment(
        id=seg_id,
        polyline=polyline,
        spot_type=spot_type,
        intersection_indices=frozenset(intersections),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_transform(rng) -> np.ndarray:
    """A (theta, s_x, s_y) row."""
    return np.array([rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50), rng.uniform(-50, 50)])


def fd_warp_jacobian(t, values, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of warp_values(t, values) w.r.t. (theta, s_x, s_y)."""
    from spotalign.solver import warp_values

    cols = []
    for i in range(3):
        up, down = np.array(t, dtype=float), np.array(t, dtype=float)
        up[i] += h
        down[i] -= h
        cols.append((warp_values(up, values) - warp_values(down, values)) / (2 * h))
    return np.stack(cols, axis=1)
