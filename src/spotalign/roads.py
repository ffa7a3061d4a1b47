"""Road segments, parking-spot spacing rules, and candidate-location sampling.

Candidate locations are generated by walking the segment's arclength at the
spacing dictated by the spot layout (6 m for parallel spots, 3 m for angled
and perpendicular ones), skipping everything within 50 m of a flagged
intersection.  Interpolation is linear in the segment's local metric frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geo import GeoPoint, LocalFrame, make_frame, project_points

INTERSECTION_CLEARANCE_M = 50.0

STRAIGHT = "straight"
CURVE = "curve"


class SpotType(enum.Enum):
    """Parking-spot layout; the value is the label used in dataset files."""

    PARALLEL = "parallel"
    ANGLED30 = "angled30"
    ANGLED45 = "angled45"
    ANGLED60 = "angled60"
    PERPENDICULAR = "perpendicular"

    @property
    def spacing(self) -> float:
        """Distance in meters between adjacent spots of this layout."""
        return 6.0 if self is SpotType.PARALLEL else 3.0

    @classmethod
    def from_label(cls, label: str) -> "SpotType":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise ValueError(f"unknown spot type {label!r}") from None


class EmptyCandidateError(Exception):
    """Raised when a segment has no room for candidates after exclusions."""

    def __init__(self, segment_id: str, usable_length: float):
        self.segment_id = segment_id
        self.usable_length = usable_length
        super().__init__(
            f"segment {segment_id!r}: usable arclength {usable_length:.2f} m "
            "leaves no room for candidates"
        )


class InsufficientCandidatesError(ValueError):
    """Fewer candidates than collected points; no window can be formed."""

    def __init__(self, segment_id: str, n_candidates: int, n_collected: int):
        self.segment_id = segment_id
        self.n_candidates = n_candidates
        self.n_collected = n_collected
        super().__init__(
            f"segment {segment_id!r}: {n_candidates} candidates cannot host "
            f"{n_collected} collected points"
        )


@dataclass(frozen=True)
class RoadSegment:
    """Ordered polyline with intersection flags and the spot layout on it.

    ``intersection_indices`` are indices into ``polyline`` of vertices flagged
    as intersections.  Degenerate (repeated-vertex) polylines are tolerated;
    they simply contribute zero arclength.
    """

    id: str
    polyline: tuple[GeoPoint, ...]
    spot_type: SpotType
    shape_class: str = STRAIGHT
    intersection_indices: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.id:  # the segments loader rejects a row with an empty id
            raise ValueError("segment id must not be empty")
        if self.id.startswith("#"):  # dataset files would read its rows as comments
            raise ValueError(f"segment id {self.id!r} must not start with '#'")
        if "\r" in self.id or "\n" in self.id:  # dataset files would split its rows
            raise ValueError(f"segment id {self.id!r} must not contain a line break")
        if len(self.polyline) < 2:
            raise ValueError(f"segment {self.id!r} needs at least 2 polyline points")
        if self.shape_class not in (STRAIGHT, CURVE):
            raise ValueError(f"unknown shape class {self.shape_class!r}")
        bad = [i for i in self.intersection_indices if not 0 <= i < len(self.polyline)]
        if bad:
            raise ValueError(f"segment {self.id!r}: intersection indices {bad} out of range")

    def frame(self) -> LocalFrame:
        """Local metric frame anchored at the polyline's vertex average."""
        vertices, n = self.polyline, len(self.polyline)
        return make_frame(GeoPoint(sum(p.lat for p in vertices) / n, sum(p.lon for p in vertices) / n))


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Candidate spot locations sampled along one segment, ordered by arclength.

    ``points`` is a read-only (K, 2) array of local meters and ``arclengths``
    the read-only (K,) array of their arclength positions.
    """

    segment_id: str
    points: np.ndarray
    arclengths: np.ndarray
    frame: LocalFrame

    def __len__(self) -> int:
        return len(self.points)

    def xy(self) -> np.ndarray:
        """Candidate coordinates as a (K, 2) array of local meters."""
        return self.points

    def window_count(self, m: int) -> int:
        """K - M + 1 windows at stride 1; :class:`InsufficientCandidatesError` if K < M."""
        k = len(self.points)
        if k < m:
            raise InsufficientCandidatesError(self.segment_id, k, m)
        return k - m + 1


def _cumulative_arclengths(xy: np.ndarray) -> np.ndarray:
    steps = np.diff(xy, axis=0)
    cum = np.zeros(len(xy))
    np.cumsum(np.hypot(steps[:, 0], steps[:, 1]), out=cum[1:])
    return cum


def segment_arclength(segment: RoadSegment) -> float:
    """Total polyline length in meters, measured in the segment's local frame."""
    xy = project_points(segment.frame(), segment.polyline)
    return float(_cumulative_arclengths(xy)[-1])


def _admissible_intervals(total: float, exclusion_centers: list[float]) -> list[tuple[float, float]]:
    """Sub-intervals of [0, total] at least 50 m in arclength from every center.

    ``exclusion_centers`` is sorted; the clearance itself is allowed, so an
    interval may be a single point.
    """
    intervals, start = [], 0.0
    for c in exclusion_centers:
        if c - INTERSECTION_CLEARANCE_M >= start:
            intervals.append((start, c - INTERSECTION_CLEARANCE_M))
        start = max(start, c + INTERSECTION_CLEARANCE_M)
    if total >= start:
        intervals.append((start, total))
    return intervals


def sample_candidates(segment: RoadSegment) -> CandidateSet:
    """Sample candidate spot locations along ``segment``.

    Within each admissible stretch (after removing the 50 m windows around
    flagged intersections) the walk restarts at the stretch's first arclength
    and places candidates at exact multiples of the spot spacing.  Interval
    endpoints are themselves admissible: a candidate exactly 50 m from an
    intersection is kept.

    Raises :class:`EmptyCandidateError` if no admissible stretch can hold a
    single candidate pair.
    """
    frame = segment.frame()
    xy = project_points(frame, segment.polyline)
    cum = _cumulative_arclengths(xy)
    total = float(cum[-1])
    spacing = segment.spot_type.spacing

    centers = sorted(float(cum[i]) for i in segment.intersection_indices)
    intervals = _admissible_intervals(total, centers)
    usable = sum(b - a for a, b in intervals)
    if not intervals or usable < spacing:
        raise EmptyCandidateError(segment.id, usable)

    # guard keeps the last step admissible when (b - a) is a hair under a
    # multiple of the spacing; overshoot is bounded by 6e-10 m
    stretches = [a + np.arange(math.floor((b - a) / spacing + 1e-10) + 1) * spacing for a, b in intervals]
    arcs = stretches[0] if len(stretches) == 1 else np.concatenate(stretches)
    # interpolate each arclength within the edge containing it (cum is non-decreasing)
    edge = np.minimum(np.maximum(np.searchsorted(cum, arcs, side="right") - 1, 0), len(cum) - 2)
    length = cum[edge + 1] - cum[edge]
    t = np.divide(arcs - cum[edge], length, out=np.zeros_like(arcs), where=length != 0.0)
    points = xy[edge] + t[:, None] * (xy[edge + 1] - xy[edge])
    points.flags.writeable = False
    arcs.flags.writeable = False
    return CandidateSet(segment_id=segment.id, points=points, arclengths=arcs, frame=frame)
