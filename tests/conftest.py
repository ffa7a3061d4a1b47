"""Shared builders for geometry-heavy tests.

Segments are constructed near the equator along the x axis unless stated
otherwise: there the local frame's longitude scale matches the latitude
scale to ~1e-15 relative, so arclengths survive the centroid reprojection
inside the library exactly enough for count assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

from spotalign.geo import GeoPoint, LocalPoint, make_frame, to_geo, unproject_points
from spotalign.roads import RoadSegment, SpotType


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


def fd_warp_jacobian(t, values, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of warp_values(t, values) w.r.t. (theta, s_x, s_y)."""
    from spotalign.rigid import warp_values

    cols = []
    for i in range(3):
        up, down = np.array(t, dtype=float), np.array(t, dtype=float)
        up[i] += h
        down[i] -= h
        cols.append((warp_values(up, values) - warp_values(down, values)) / (2 * h))
    return np.stack(cols, axis=1)
