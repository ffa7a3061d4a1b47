"""Coordinate types and the local metric frame the rest of the library computes in.

Solver math needs meters on both axes (rotations mix axes, so the axes must
share units).  Each road segment gets a small equirectangular frame anchored
at its centroid; within the ~2 km extent of a segment the distortion is
sub-centimeter, so no heavyweight geodesy dependency is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6378137.0
METERS_PER_DEG_LAT = math.pi * EARTH_RADIUS_M / 180.0

# Beyond this distance from the frame origin the flat-earth approximation is
# no longer trustworthy for our accuracy targets.
MAX_FRAME_RANGE_M = 10_000.0


@dataclass(frozen=True, slots=True, init=False)
class GeoPoint:
    """A WGS-84 coordinate in degrees."""

    lat: float
    lon: float

    # Hand-written because every loaded row and every unprojected point builds
    # one: one chained range test and no __post_init__ call are cheaper than
    # the generated frozen __init__.  Slots keep a point at 80 bytes (120 with
    # an instance dict; writing through self.__dict__ would be faster still,
    # but reading __dict__ materialises a dict and makes a point 184 bytes).
    def __init__(self, lat: float, lon: float) -> None:
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"latitude {lat} outside [-90, 90]")
            raise ValueError(f"longitude {lon} outside [-180, 180]")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)


@dataclass(frozen=True)
class LocalPoint:
    """Meters east (x) and north (y) of a frame origin."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("local coordinates must be finite")


@dataclass(frozen=True)
class LocalFrame:
    """Equirectangular frame: degrees scale linearly to meters about ``origin``."""

    origin: GeoPoint
    meters_per_deg_lat: float
    meters_per_deg_lon: float


def make_frame(origin: GeoPoint) -> LocalFrame:
    """Build the local metric frame anchored at ``origin``.

    Rejects origins within 1 degree of the poles, where the longitude scale
    degenerates.
    """
    if abs(origin.lat) >= 89.0:
        raise ValueError(f"frame origin latitude {origin.lat} too close to a pole")
    return LocalFrame(
        origin=origin,
        meters_per_deg_lat=METERS_PER_DEG_LAT,
        meters_per_deg_lon=METERS_PER_DEG_LAT * math.cos(math.radians(origin.lat)),
    )


def to_geo(frame: LocalFrame, q: LocalPoint) -> GeoPoint:
    """Exact inverse of projecting with :func:`project_points`."""
    return unproject_points(frame, [[q.x, q.y]])[0]


def project_points(frame: LocalFrame, points: list[GeoPoint] | tuple[GeoPoint, ...]) -> np.ndarray:
    """Project a sequence of GeoPoints to an (N, 2) array of local meters.

    Rejects the whole sequence if any point lies beyond 10 km of the origin;
    the error names the first such point.
    """
    ll = np.array([(p.lat, p.lon) for p in points], dtype=float).reshape(-1, 2)
    xy = np.empty_like(ll)
    np.multiply(ll[:, 1] - frame.origin.lon, frame.meters_per_deg_lon, xy[:, 0])
    np.multiply(ll[:, 0] - frame.origin.lat, frame.meters_per_deg_lat, xy[:, 1])
    dist = np.hypot(xy[:, 0], xy[:, 1])
    if dist.size and dist.max() > MAX_FRAME_RANGE_M:
        i = int(np.flatnonzero(dist > MAX_FRAME_RANGE_M)[0])
        raise ValueError(
            f"point {points[i]} is {dist[i]:.0f} m from the frame origin "
            f"(limit {MAX_FRAME_RANGE_M:.0f} m)"
        )
    return xy


def unproject_points(frame: LocalFrame, xy: np.ndarray) -> list[GeoPoint]:
    """Inverse of :func:`project_points` for an (N, 2) array (or an empty list)."""
    xy = np.asarray(xy, dtype=float)
    if xy.shape == (0,):
        return []
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) array of local meters, got shape {xy.shape}")
    lat = frame.origin.lat + xy[:, 1] / frame.meters_per_deg_lat
    lon = frame.origin.lon + xy[:, 0] / frame.meters_per_deg_lon
    return [GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist())]

