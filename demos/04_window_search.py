"""Window race: find where corrupted points belong on a segment.

Collected points are scored against the contiguous candidate windows,
nearest centroid first; a window whose loss early in its solve already
trails the best finished one is abandoned.  The alignment loss (sparse
errors + offset block + transform size) is lowest at the true window even
under rotation, lateral drift, and outliers.
"""
import math

import numpy as np

from spotalign import CollectedSet, GeoPoint, RoadSegment, SpotType, make_frame, raa_rectify, sample_candidates
from spotalign.geo import project_points, unproject_points

rng = np.random.default_rng(7)
frame = make_frame(GeoPoint(39.9, 116.4))
xy = np.column_stack([np.linspace(0, 99 * 6.0, 4), np.zeros(4)])
segment = RoadSegment(id="demo", polyline=tuple(unproject_points(frame, xy)), spot_type=SpotType.PARALLEL)

cands = sample_candidates(segment)
print(f"segment with {len(cands)} candidates at 6 m spacing")

true_start, m = 41, 30
truth = cands.xy()[true_start:true_start + m]

corrupted = truth.copy()
ang = math.radians(5.0)
center = corrupted.mean(axis=0)
rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
corrupted = (corrupted - center) @ rot.T + center + np.array([0.0, 4.0])
for i in rng.choice(m, 3, replace=False):
    d = rng.uniform(0, 2 * math.pi)
    corrupted[i] += rng.uniform(10, 20) * np.array([math.cos(d), math.sin(d)])

collected = CollectedSet(
    segment_id=segment.id,
    points=tuple(unproject_points(cands.frame, corrupted)),
    ground_truth=tuple(unproject_points(cands.frame, truth)),
)
print(f"planted window start: {true_start}; corruption: 5 deg rotation + 4 m lateral + 3 outliers")

out = raa_rectify(collected, segment, th=1.0)
losses = np.asarray(out.window_losses)
finished = np.flatnonzero(np.isfinite(losses))
order = finished[np.argsort(losses[finished])][:5]
print(f"\nrecovered window start: {out.window_start_index}")
print(f"{len(losses) - len(finished)} of {len(losses)} windows abandoned; up to five best finished windows:")
for i in order:
    marker = " <- chosen" if i == out.window_start_index else ""
    print(f"  start {i:3d}: loss {losses[i]:10.2f}{marker}")

dev = np.hypot(*(project_points(cands.frame, out.points) - truth).T)
print(f"\npost-snap deviation from ground truth: max {dev.max():.2e} m")
